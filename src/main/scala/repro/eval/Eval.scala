package repro.eval

import scala.collection.mutable.ArrayBuffer

import repro.core.{BenchTimeout, LocalAlgos, Variant}
import repro.graph.{Datasets, LocalGraph, SynthBipartite, TemporalEdge}
import repro.util.ParFold

/** Shared experiment harness for the evaluation reproduction: dataset
  * materialization, timed algorithm runs with a TLE cap (the analogue of
  * the paper's 100,000 s limit), and table formatting. Both the
  * `spark-submit` entrypoints under `jobs/` and the bench suites under
  * `bench/` drive their experiments through this module.
  */
object Eval {

  final case class Timed[A](value: A, millis: Double)

  def time[A](f: => A): Timed[A] = {
    val t0 = System.nanoTime()
    val v = f
    Timed(v, (System.nanoTime() - t0) / 1e6)
  }

  /** Run a counting algorithm under a wall-clock cap; Left("TLE") past it. */
  def capped(limitMs: Long)(f: Long => Array[Long]): Either[String, Timed[Array[Long]]] = {
    val deadline = System.nanoTime() + limitMs * 1000000L
    try Right(time(f(deadline)))
    catch { case _: BenchTimeout => Left("TLE") }
  }

  def fmtMs(r: Either[String, Timed[_]]): String = r match {
    case Left(s) => s
    case Right(t) => f"${t.millis}%.1f"
  }

  def pct(c: Array[Long]): Array[Double] = {
    val s = c.sum.toDouble
    if (s == 0) Array.fill(6)(0.0) else c.map(_ * 100.0 / s)
  }

  /** Fixed-width table printer. */
  def printTable(header: Seq[String], rows: Seq[Seq[String]], out: String => Unit = println): Unit = {
    val all = header +: rows
    val widths = header.indices.map(i => all.map(_(i).length).max)
    def fmt(r: Seq[String]) =
      r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("  ")
    out(fmt(header))
    out(widths.map("-" * _).mkString("  "))
    rows.foreach(r => out(fmt(r)))
  }

  /** [[printTable]] for a table of static-algorithm times, which depend on
    * the worker count: a last line records it.
    */
  def printTimingTable(header: Seq[String], rows: Seq[Seq[String]], out: String => Unit = println): Unit = {
    printTable(header, rows, out)
    out(s"(static algorithms on ${ParFold.workers} worker threads)")
  }

  // ------------------------------------------------------------------
  // dataset materialization (cached per key: several benches share them)
  // ------------------------------------------------------------------

  private val cache = scala.collection.mutable.HashMap.empty[String, IndexedSeq[TemporalEdge]]

  def edgesOf(spec: Datasets.Spec): IndexedSeq[TemporalEdge] =
    cache.getOrElseUpdate(spec.key, SynthBipartite.generate(spec.cfg))

  def graphOf(spec: Datasets.Spec): LocalGraph = LocalGraph.fromEdges(edgesOf(spec))

  // ------------------------------------------------------------------
  // Table 3: dataset summary
  // ------------------------------------------------------------------

  final case class DatasetStats(
      key: String, entities: String,
      e: Long, u: Long, l: Long, spanDays: Double,
      paperE: Long, paperU: Long, paperL: Long, paperSpanDays: Double)

  def datasetStats(spec: Datasets.Spec): DatasetStats = {
    val edges = edgesOf(spec)
    val span = (edges.last.t - edges.head.t) / SynthBipartite.SecondsPerDay.toDouble
    DatasetStats(spec.key, spec.entities,
      edges.length.toLong,
      edges.iterator.map(_.u).distinct.size.toLong,
      edges.iterator.map(_.v).distinct.size.toLong,
      span,
      spec.paperE, spec.paperU, spec.paperL, spec.paperSpanDays)
  }

  // ------------------------------------------------------------------
  // Table 4: per-type count distribution at delta = 40 days
  // ------------------------------------------------------------------

  final case class DistRow(key: String, entities: String, counts: Array[Long], pcts: Array[Double])

  def table4Row(spec: Datasets.Spec, delta: Long): DistRow = {
    val c = LocalAlgos.tbcPlusPlus(graphOf(spec), delta)
    DistRow(spec.key, spec.entities, c, pct(c))
  }

  // ------------------------------------------------------------------
  // Figure 11/12-style overall performance (counting + enumeration)
  // ------------------------------------------------------------------

  final case class PerfRow(key: String, results: Seq[(String, Either[String, Timed[Array[Long]]])])

  val CountingAlgos: Seq[(String, (LocalGraph, Long, Long) => Array[Long])] = Seq(
    "TBC"   -> ((g, d, dl) => LocalAlgos.tbc(g, d, dl)),
    "TBC+"  -> ((g, d, dl) => LocalAlgos.tbcPlus(g, d, dl)),
    "TBC++" -> ((g, d, dl) => LocalAlgos.tbcPlusPlus(g, d, dl)),
  )

  val EnumAlgos: Seq[(String, (LocalGraph, Long, Long) => Array[Long])] = Seq(
    "TBE"  -> ((g, d, dl) => Array(LocalAlgos.tbe(g, d, collect = false, dl)._1)),
    "TBE+" -> ((g, d, dl) => Array(LocalAlgos.tbePlus(g, d, collect = false, dl)._1)),
  )

  def perfRow(spec: Datasets.Spec, delta: Long, limitMs: Long,
              algos: Seq[(String, (LocalGraph, Long, Long) => Array[Long])]): PerfRow =
    perfRowLimits(spec, delta, _ => limitMs, algos)

  /** Like [[perfRow]] but with a per-algorithm TLE cap — hopeless baseline
    * runs can be cut short without capping the heavyweight-but-feasible
    * optimized runs.
    */
  def perfRowLimits(spec: Datasets.Spec, delta: Long, limitMs: String => Long,
                    algos: Seq[(String, (LocalGraph, Long, Long) => Array[Long])]): PerfRow = {
    val g = graphOf(spec)
    PerfRow(spec.key, algos.map { case (name, run) =>
      name -> capped(limitMs(name))(dl => run(g, delta, dl))
    })
  }

  /** Scalability: run on a random fraction of edges (averaged over reps). */
  def scalabilityPoint(edges: IndexedSeq[TemporalEdge], fraction: Double, delta: Long,
                       limitMs: Long, variant: Variant, reps: Int, seed: Long): Either[String, Double] = {
    var total = 0.0
    var rep = 0
    while (rep < reps) {
      val rnd = new scala.util.Random(seed + rep)
      val sub = if (fraction >= 1.0) edges else edges.filter(_ => rnd.nextDouble() < fraction)
      val g = LocalGraph.fromEdges(sub)
      capped(limitMs)(dl => LocalAlgos.count(g, delta, variant, dl)) match {
        case Left(s) => return Left(s)
        case Right(t) => total += t.millis
      }
      rep += 1
    }
    Right(total / reps)
  }
}
