package repro.perfbench

import scala.collection.mutable.ArrayBuffer

import repro.core.LocalAlgos
import repro.graph.{LocalGraph, TemporalEdge}
import repro.stream.SlidingWindow

/** The inputs of one run, all generated from the seed on first use. The
  * program only ever sees these edges.
  */
final class Inputs(val w: Workload, seed: Long) {
  private val SeedStep = 7919L
  private def seedOf(i: Int): Long = seed + i * SeedStep

  /** The static graphs of the untraced run; graph 0, drawn from the seed
    * itself, is the one the traced run replays and whose counts are pinned.
    */
  lazy val statics: IndexedSeq[IndexedSeq[TemporalEdge]] =
    (0 until Workload.StaticGraphs).map(i => w.edges(w.staticEdges, seedOf(i)))
  def static: IndexedSeq[TemporalEdge] = statics.head
  lazy val spark: IndexedSeq[TemporalEdge] = w.edges(w.sparkEdges, seed)

  /** The stream the traced run slides over: the window and
    * [[Workload.StreamSlides]] slides of the stream graph drawn from the seed.
    */
  lazy val stream: IndexedSeq[TemporalEdge] =
    w.edges(w.streamEdges, seed).take(w.window + Workload.StreamSlides * w.stride)

  /** The chunks of the untraced run: chunk `r` is the window and
    * [[Workload.ChunkSlides]] slides of the stream graph drawn from the seed
    * and `r`. How long a slide takes depends much on the graph, so many
    * short chunks of different graphs make the slide figures depend little
    * on any one graph a seed draws.
    */
  lazy val chunks: IndexedSeq[IndexedSeq[TemporalEdge]] = (0 until w.chunks).map { r =>
    (if (r == 0) stream else w.edges(w.streamEdges, seedOf(r))).take(w.window + Workload.ChunkSlides * w.stride)
  }
}

/** Stream variants: name and `SlidingWindow.run` thread count (0 = STBC). */
object StreamVariants {
  def apply(k: Int): Seq[(String, Int)] = Seq("stbc" -> 0, "stbcp1" -> 1, "stbcpk" -> k)
}

/** Reference counts every operation is checked against. */
final class References(in: Inputs, seed: Long, chk: Checker) {
  private val delta = Workloads.Delta

  /** Reference counts computed so far, by pin key, for the result file. */
  val computed = scala.collection.mutable.LinkedHashMap.empty[String, Seq[Long]]

  private def pinnedCheck(key: String, got: Array[Long]): Unit = synchronized {
    if (!computed.contains(key)) computed(key) = got.toSeq
    if (seed == Workloads.DefaultSeed)
      chk.sameCounts(s"pinned $key counts", in.w.pinned.getOrElse(key, Nil), got.toSeq)
  }

  /** TBC++ on a static graph; TBC+ and TBE+ must agree with it. `pin`
    * marks graph 0, whose counts are pinned.
    */
  def static(g: LocalGraph, pin: Boolean = true): Array[Long] = {
    val c = LocalAlgos.tbcPlusPlus(g, delta)
    if (pin) pinnedCheck("static", c)
    c
  }

  /** TBC++ on the Spark graph, built locally. */
  lazy val spark: Array[Long] = {
    val c = LocalAlgos.tbcPlusPlus(LocalGraph.fromEdges(in.spark), delta)
    pinnedCheck("spark", c)
    c
  }

  /** Check that every stream variant reported the same counts at every
    * step of a run over `edges`, and that the last window equals a
    * from-scratch count. `pin` names the pinned counts of that window.
    */
  def checkStream(edges: IndexedSeq[TemporalEdge], runs: Seq[(String, Seq[SlidingWindow.Step])],
                  pin: Option[String]): Unit = {
    val (refName, ref) = runs.head
    runs.tail.foreach { case (name, steps) =>
      chk.check(s"stream: $name has ${steps.length} steps, $refName ${ref.length}", steps.length == ref.length)
      ref.zip(steps).foreach { case (a, b) =>
        chk.sameCounts(s"stream step ${a.index}: $name vs $refName", a.counts.toSeq, b.counts.toSeq)
      }
    }
    val last = ref.last
    val scratch = LocalAlgos.tbcPlusPlus(LocalGraph.fromEdges(edges.slice(last.windowStart, last.windowEnd)), delta)
    chk.sameCounts("stream last window vs from-scratch TBC++", scratch.toSeq, last.counts.toSeq)
    pin.foreach(pinnedCheck(_, scratch))
  }
}

/** The untraced run: end-to-end metrics only. It runs the local layers
  * alone; Spark, whose first hundred queries keep getting faster and whose
  * threads and code disturb the local calls, is measured by the traced run.
  *
  * Measurement is a closed loop of passes. A pass is `w.chunks`
  * rounds: round `r` slides STBC and STBC+-1 over chunk `r`, and every
  * `chunks / StaticGraphs`-th round also rebuilds the static graphs (the
  * set-up) and calls TBC++, TBC+ and TBE+ on the next one. Every pass sees
  * the same inputs, whatever the number of passes, so only the program's
  * speed decides how the samples fall.
  *
  * The [[Reference]] work runs before every timed call and every round of
  * slides, and each sample is scaled by it: a sample of `t` taken when the
  * reference took `r` ms is recorded as `t * Reference.NominalMs / r`, the
  * time on a machine where the reference takes `NominalMs`. The unscaled
  * samples are kept under `raw.` names.
  */
object Untraced {

  private val delta = Workloads.Delta
  private val WarmupPasses = 2
  private val MinPasses = 3
  /** Static calls past this are failed operations. */
  private val OpTimeoutNs = 60L * 1000000000L

  def run(in: Inputs, refs: References, seconds: Double, k: Int, chk: Checker, log: SampleLog): Metrics = {
    val w = in.w
    val nStatic = Workload.StaticGraphs
    val roundsPerStatic = w.chunks / nStatic
    var graphs = in.statics.map(LocalGraph.fromEdges)
    val expect = graphs.zipWithIndex.map { case (g, i) => refs.static(g, pin = i == 0).toSeq }

    val reference = new Reference
    var scale = 1.0
    /** Time the reference work; samples until the next call scale by it. */
    def calibrate(record: Boolean): Unit = {
      val r = reference.timeMs()
      scale = Reference.NominalMs / r
      if (record) log.add("reference_ms", r)
    }
    def sample(name: String, raw: Double): Unit = {
      log.add(name, raw * scale)
      log.add(s"raw.$name", raw)
    }

    def setup(record: Boolean): Unit = {
      calibrate(record)
      val t0 = Clock.nanos()
      graphs = in.statics.map(LocalGraph.fromEdges)
      if (record) sample("setup_s", (Clock.nanos() - t0) / 1e9)
    }

    /** One static call on graph `i` under a deadline; its time and
      * allocation are samples of that graph.
      */
    def static(name: String, i: Int, record: Boolean)(call: Long => Array[Long]): Option[Array[Long]] = {
      calibrate(record)
      val a0 = Clock.allocated()
      val t0 = Clock.nanos()
      val got = chk.attempt(name)(call(t0 + OpTimeoutNs))
      val t1 = Clock.nanos()
      val a1 = Clock.allocated()
      if (record) {
        sample(s"$name.g$i.s", (t1 - t0) / 1e9)
        log.add(s"$name.g$i.alloc_mb", (a1 - a0) / 1e6)
      }
      got
    }
    def staticRound(i: Int, record: Boolean): Unit = {
      val g = graphs(i)
      static("tbcpp", i, record)(LocalAlgos.tbcPlusPlus(g, delta, _))
        .foreach(c => chk.sameCounts(s"tbcpp on graph $i vs its first TBC++", expect(i), c.toSeq))
      static("tbcp", i, record)(LocalAlgos.tbcPlus(g, delta, _))
        .foreach(c => chk.sameCounts(s"tbcp on graph $i vs TBC++", expect(i), c.toSeq))
      static("tbep", i, record)(dl => Array(LocalAlgos.tbePlus(g, delta, collect = false, dl)._1))
        .foreach(c => chk.check(s"tbep total ${c(0)} on graph $i vs TBC++ sum ${expect(i).sum}", c(0) == expect(i).sum))
    }

    /** Slide each of `variants` over chunk `r`; slide latencies are the
      * time between consecutive `onStep` callbacks. Every pass is checked;
      * the last chunk ends in the window whose counts are pinned.
      */
    def streamRound(r: Int, variants: Seq[(String, Int)], record: Boolean): Unit = {
      calibrate(record)
      val chunk = in.chunks(r)
      val runs = variants.map { case (name, threads) =>
        val steps = ArrayBuffer.empty[SlidingWindow.Step]
        var last = Clock.nanos()
        chk.attempt(name) {
          SlidingWindow.run(chunk, w.window, w.stride, delta, threads, onStep = { s =>
            val now = Clock.nanos()
            if (record && s.index > 0) sample(s"${name}_slide_ms", (now - last) / 1e6)
            steps += s
            last = now
          })
        }
        name -> steps.toSeq
      }
      if (chk.check("stream: every variant ran", runs.forall(_._2.nonEmpty)))
        refs.checkStream(chunk, runs, if (r == w.chunks - 1) Some("window") else None)
    }

    def pass(variants: Seq[(String, Int)], record: Boolean): Unit =
      for (r <- 0 until w.chunks) {
        streamRound(r, variants, record)
        if (r % roundsPerStatic == roundsPerStatic - 1) {
          setup(record)
          staticRound(r / roundsPerStatic, record)
        }
      }

    // Warm-up, checked but not timed. STBC+-k runs here only: it is checked
    // against the other variants, but its per-batch thread pool would
    // disturb the timed calls around it.
    val timedVariants = StreamVariants(k).filter(_._1 != "stbcpk")
    pass(StreamVariants(k), record = false)
    for (_ <- 1 until WarmupPasses) pass(timedVariants, record = false)
    log.phase("warmup")

    val deadline = Clock.nanos() + (seconds * 1e9).toLong
    var passes = 0
    var lastPassNs = 0L
    // A pass starts only if it is likely to end by the deadline.
    while (passes < MinPasses || Clock.nanos() + lastPassNs <= deadline) {
      val t0 = Clock.nanos()
      pass(timedVariants, record = true)
      lastPassNs = Clock.nanos() - t0
      passes += 1
    }
    log.phase("measure")
    log.add("passes", passes.toDouble)

    /** Mean over the static graphs of the median of `series` on each. */
    def perGraph(series: String): Double =
      (0 until nStatic).map(i => Stats.median(log(series.replace("*", s"g$i")))).sum / nStatic

    val m = new Metrics
    m("setup_s") = (Stats.median(log("setup_s")), "s")
    Seq("tbcpp", "tbcp", "tbep").foreach(n => m(s"${n}_s") = (perGraph(s"$n.*.s"), "s"))
    // TBC+'s allocation is only printed: what escape analysis removes
    // differed from one JVM to the next (141 to 198 MB on lf-hub) until the
    // launcher raised C2's inlining limit.
    m("tbcpp_alloc_mb") = (perGraph("tbcpp.*.alloc_mb"), "MB")
    log.add("tbcp_alloc_mb", perGraph("tbcp.*.alloc_mb"))
    Seq("stbc", "stbcp1").foreach(n => m(s"${n}_slide_ms_p50") = (Stats.median(log(s"${n}_slide_ms")), "ms"))
    // The same figures unscaled, for the report and the result file.
    log.add("unscaled.setup_s", Stats.median(log("raw.setup_s")))
    Seq("tbcpp", "tbcp", "tbep").foreach(n => log.add(s"unscaled.${n}_s", perGraph(s"raw.$n.*.s")))
    Seq("stbc", "stbcp1").foreach(n => log.add(s"unscaled.${n}_slide_ms_p50", Stats.median(log(s"raw.${n}_slide_ms"))))
    m
  }
}
