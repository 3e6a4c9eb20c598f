package repro.eval

import repro.core.{BenchTimeout, LocalAlgos, Variant}
import repro.graph.{Datasets, LocalGraph, SynthBipartite, TemporalEdge}
import repro.util.ParFold

/** Shared experiment harness for the evaluation reproduction: dataset
  * materialization, timed algorithm runs with a TLE cap (the analogue of
  * the paper's 100,000 s limit), and table formatting. Each table or
  * figure is one function here that runs its sweep, prints its table
  * through `out` and returns the rows: the `spark-submit` entrypoint under
  * `jobs/` only parses its arguments and calls it, and the bench suite
  * under `bench/` calls it and asserts on the rows.
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

  /** Table 3: measured |E|, |U|, |L| and time span of each of `specs` next
    * to the paper's numbers.
    */
  def table3(specs: Seq[Datasets.Spec] = Datasets.all, out: String => Unit = println): Seq[DatasetStats] = {
    val rows = specs.map(datasetStats)
    printTable(
      Seq("Dataset", "|E|", "|U|", "|L|", "Span(d)",
          "paper|E|", "paper|U|", "paper|L|", "paperSpan(d)"),
      rows.map(r => Seq(r.key, r.e.toString, r.u.toString, r.l.toString,
        f"${r.spanDays}%.2f", r.paperE.toString, r.paperU.toString,
        r.paperL.toString, f"${r.paperSpanDays}%.2f")), out)
    rows
  }

  // ------------------------------------------------------------------
  // Table 4: per-type count distribution
  // ------------------------------------------------------------------

  final case class DistRow(key: String, entities: String, counts: Array[Long], pcts: Array[Double])

  def table4Row(spec: Datasets.Spec, delta: Long): DistRow = {
    val c = LocalAlgos.tbcPlusPlus(graphOf(spec), delta)
    DistRow(spec.key, spec.entities, c, pct(c))
  }

  /** Table 4: the TBC++ total and per-type shares on each of `specs`. */
  def table4(delta: Long = Datasets.DefaultDeltaSeconds, specs: Seq[Datasets.Spec] = Datasets.all,
             out: String => Unit = println): Seq[DistRow] = {
    val rows = specs.map(s => table4Row(s, delta))
    printTable(
      Seq("Dataset", "Entities", "Total") ++ (0 until 6).map(i => s"T$i"),
      rows.map(r => Seq(r.key, r.entities, r.counts.sum.toString) ++
        r.pcts.map(p => f"$p%.1f%%")), out)
    rows
  }

  // ------------------------------------------------------------------
  // Figure 11/12-style overall performance (counting + enumeration)
  // ------------------------------------------------------------------

  final case class PerfRow(key: String, results: Seq[(String, Either[String, Timed[Array[Long]]])])

  /** The five algorithms of the timing tables, in column order; the
    * enumerators report their instance count.
    */
  val Algos: Seq[(String, (LocalGraph, Long, Long) => Array[Long])] = Seq(
    "TBC"   -> ((g, d, dl) => LocalAlgos.tbc(g, d, dl)),
    "TBC+"  -> ((g, d, dl) => LocalAlgos.tbcPlus(g, d, dl)),
    "TBC++" -> ((g, d, dl) => LocalAlgos.tbcPlusPlus(g, d, dl)),
    "TBE"   -> ((g, d, dl) => Array(LocalAlgos.tbe(g, d, collect = false, dl)._1)),
    "TBE+"  -> ((g, d, dl) => Array(LocalAlgos.tbePlus(g, d, collect = false, dl)._1)),
  )

  /** Time every algorithm of [[Algos]] on `spec`, capping algorithm `name`
    * at `limitMs(name)`: hopeless baseline runs can be cut short without
    * capping the heavyweight-but-feasible optimized runs.
    */
  def perfRowLimits(spec: Datasets.Spec, delta: Long, limitMs: String => Long): PerfRow = {
    val g = graphOf(spec)
    PerfRow(spec.key, Algos.map { case (name, run) =>
      name -> capped(limitMs(name))(dl => run(g, delta, dl))
    })
  }

  /** Figure 11: every algorithm on each of `specs` at delta = 40 days, and
    * the total count of TBC++ ("?" if it hit its cap).
    */
  def overallPerf(limitMs: String => Long, specs: Seq[Datasets.Spec] = Datasets.all,
                  out: String => Unit = println): Seq[(Datasets.Spec, PerfRow)] = {
    specs.headOption.foreach(perfRowLimits(_, Datasets.DefaultDeltaSeconds, limitMs)) // untimed JIT warm-up
    val perf = specs.map(s => s -> perfRowLimits(s, Datasets.DefaultDeltaSeconds, limitMs))
    printTimingTable(
      ("Dataset" +: Algos.map(_._1 + "(ms)")) :+ "Total counts",
      perf.map { case (spec, row) =>
        val total = row.results.collectFirst {
          case ("TBC++", Right(t)) => t.value.sum.toString
        }.getOrElse("?")
        (spec.key +: row.results.map { case (_, r) => fmtMs(r) }) :+ total
      }, out)
    perf
  }

  // ------------------------------------------------------------------
  // Figure 13/14/16-style sweep of the duration constraint
  // ------------------------------------------------------------------

  val SweepDeltaDays: Seq[Long] = Seq(10L, 20L, 40L, 80L, 160L)

  /** Figures 13/14/16: every algorithm's time (capped at `limitMs`) and the
    * per-type distribution on dataset `key` for each delta of
    * [[SweepDeltaDays]].
    */
  def deltaSweep(key: String, limitMs: Long, out: String => Unit = println): Seq[(Long, PerfRow, DistRow)] = {
    val spec = Datasets.byKey(key)
    out(s"== $key: varying delta (TLE = ${limitMs / 1000}s) ==")
    perfRowLimits(spec, SweepDeltaDays.head * SynthBipartite.SecondsPerDay, _ => limitMs) // untimed JIT warm-up
    val sweep = SweepDeltaDays.map { d =>
      val delta = d * SynthBipartite.SecondsPerDay
      (d, perfRowLimits(spec, delta, _ => limitMs), table4Row(spec, delta))
    }
    printTimingTable(
      ("delta" +: Algos.map(_._1 + "(ms)")) ++ Seq("Total") ++ (0 until 6).map(i => s"T$i"),
      sweep.map { case (d, row, dist) =>
        (s"${d}d" +: row.results.map { case (_, r) => fmtMs(r) }) ++
          Seq(dist.counts.sum.toString) ++ dist.pcts.map(p => f"$p%.0f%%")
      }, out)
    out("")
    sweep
  }

  // ------------------------------------------------------------------
  // Figure 15-style scalability over random edge subsets
  // ------------------------------------------------------------------

  val ScalabilityFractions: Seq[Double] = Seq(0.2, 0.4, 0.6, 0.8, 1.0)

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

  /** Figure 15: each counting variant's time (capped at `limitMs`) at delta
    * = 40 days on each of [[ScalabilityFractions]] of dataset `key`'s edges,
    * averaged over `reps` subsets drawn from `seed`; cells are keyed by
    * variant name.
    */
  def scalability(key: String, limitMs: Long, reps: Int, seed: Long,
                  out: String => Unit = println): Seq[(Double, Seq[(String, Either[String, Double])])] = {
    val edges = edgesOf(Datasets.byKey(key))
    out(s"== $key: scalability (TLE = ${limitMs / 1000}s, $reps reps) ==")
    val table = ScalabilityFractions.map { f =>
      f -> Variant.all.map { v =>
        v.name -> scalabilityPoint(edges, f, Datasets.DefaultDeltaSeconds, limitMs, v, reps, seed)
      }
    }
    printTimingTable(
      Seq("|E| frac", "TBC(ms)", "TBC+(ms)", "TBC++(ms)"),
      table.map { case (f, cells) =>
        f"${(f * 100).toInt}%%" +: cells.map {
          case (_, Left(s)) => s
          case (_, Right(ms)) => f"$ms%.1f"
        }
      }, out)
    out("")
    table
  }
}
