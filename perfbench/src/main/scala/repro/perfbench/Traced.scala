package repro.perfbench

import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

import org.apache.spark.sql.SparkSession

import repro.core.{HPIndex, LocalAlgos, LocalCombine, SetCross, TreeIndex, Variant, WedgeIndex}
import repro.graph.{LocalGraph, TemporalEdge}
import repro.sparkdist.SparkButterfly
import repro.stream.{STBC, STBCPlus, SlidingWindow, StreamGraph}

/** The traced run: per-layer metrics, measured from outside the program by
  * replaying each operation through the public entry points of its layers
  * and timing and counting the calls into them.
  *
  * Every replay is checked against the untraced call it stands for: if
  * the counts differ, the replay did not do the program's work and its
  * numbers are not reported.
  */
object Traced {

  private val delta = Workloads.Delta
  private val Reps = 3

  /** Set when a replay's counts differ from the program's. */
  final class ReplayMismatch(msg: String) extends RuntimeException(msg)

  private def ms(ns: Long): Double = ns / 1e6

  private def timed[A](f: => A): (A, Long) = {
    val t0 = Clock.nanos()
    val v = f
    (v, Clock.nanos() - t0)
  }

  private def expectSame(label: String, expected: Seq[Long], got: Seq[Long]): Unit =
    if (expected != got)
      throw new ReplayMismatch(s"$label: expected ${expected.mkString("[", ",", "]")} got ${got.mkString("[", ",", "]")}")

  def run(in: Inputs, refs: References, k: Int, spark: Sparks.Holder, chk: Checker): Metrics = {
    val m = new Metrics
    val g = graph(in, m)
    static(g, refs, m, chk)
    stream(in, refs, k, m, chk)
    sparkLayer(in, refs, spark.get, m, chk)
    m
  }

  private def graph(in: Inputs, m: Metrics): LocalGraph = {
    val builds = (0 until Reps).map(_ => timed(LocalGraph.fromEdges(in.static)))
    val g = builds.last._1
    m("graph.build_ms") = (Stats.median(builds.map(b => ms(b._2))), "ms")
    m("graph.vertices") = (g.n.toDouble, "count")
    m("graph.edges") = (g.numEdges.toDouble, "count")
    g
  }

  /** Wedge groups of every start vertex, as `LocalAlgos` forms them for the
    * pruning variants: wedges toward lower-priority middle and end vertices,
    * Lemma 1 applied, grouped by end vertex, groups of one wedge skipped.
    */
  private final class WedgeGroups(g: LocalGraph) {
    var raw = 0L
    var kept = 0L

    def foreach(f: (Int, ArrayBuffer[(Long, Long, Long)]) => Unit): Unit = {
      raw = 0; kept = 0
      var u = 0
      while (u < g.n) {
        val h = mutable.LinkedHashMap.empty[Int, ArrayBuffer[(Long, Long, Long)]]
        val pu = g.pri(u)
        val nbrs = g.adjN(u); val times = g.adjT(u)
        var i = 0
        while (i < nbrs.length) {
          val v = nbrs(i); val t1 = times(i)
          if (pu > g.pri(v)) {
            val nbrs2 = g.adjN(v); val times2 = g.adjT(v)
            var j = 0
            while (j < nbrs2.length) {
              val w = nbrs2(j); val t2 = times2(j)
              if (pu > g.pri(w)) {
                raw += 1
                if (t1 != t2 && math.abs(t2 - t1) <= delta) {
                  kept += 1
                  h.getOrElseUpdate(w, new ArrayBuffer) += ((g.origId(v).toLong, t1, t2))
                }
              }
              j += 1
            }
          }
          i += 1
        }
        val layer = g.layer(u).toInt
        h.foreach { case (_, ws) => if (ws.length > 1) f(layer, ws) }
        u += 1
      }
    }
  }

  private def static(g: LocalGraph, refs: References, m: Metrics, chk: Checker): Unit = {
    val groups = new WedgeGroups(g)
    val variants = Seq[(String, Variant, () => WedgeIndex)](
      ("tbcpp", Variant.PlusPlus, () => new TreeIndex),
      ("tbcp", Variant.Plus, () => new HPIndex(withMids = false)))
    val tbcppWallNs = variants.map { case (name, variant, mkIndex) =>
      // Pairs of the program's own call and a timing pass over the same
      // combine calls with the program's own index; the first pair warms up.
      val pairs = (0 to Reps).map { _ =>
        val (expect, wallNs) = timed(LocalAlgos.count(g, delta, variant))
        var sidesNs = 0L
        var recurNs = 0L
        val counts = new Array[Long](6)
        groups.foreach { (layer, ws) =>
          val t0 = Clock.nanos()
          val sides = LocalCombine.buildSides(ws, delta)
          val t1 = Clock.nanos()
          if (sides.length > 1) SetCross.recurCount(sides, layer, delta, counts, mkIndex)
          sidesNs += t1 - t0
          recurNs += Clock.nanos() - t1
        }
        expectSame(s"$name wedge-group replay vs LocalAlgos.count", expect.toSeq, counts.toSeq)
        (wallNs, sidesNs, recurNs)
      }.tail
      def med(f: ((Long, Long, Long)) => Double): Double = Stats.median(pairs.map(f))
      m(s"core.wedgegen_ms.$name") = (med { case (w, s, r) => ms(w - s - r) }, "ms")
      m(s"combine.build_sides_ms.$name") = (med(p => ms(p._2)), "ms")
      m(s"setcross.recur_ms.$name") = (med(p => ms(p._3)), "ms")
      if (name == "tbcpp") m("setcross.recur_share.tbcpp") = (med(p => p._3.toDouble / p._1), "ratio")
      name -> med(_._1.toDouble).toLong
    }.toMap.apply("tbcpp")

    // Counting pass: the same calls with every index wrapped in a counter.
    val ctr = new IndexCounters
    val counts = new Array[Long](6)
    val sizes = ArrayBuffer.empty[Double]
    var sides = 0L
    val (_, tracedNs) = timed(groups.foreach { (layer, ws) =>
      sizes += ws.length
      val s = LocalCombine.buildSides(ws, delta)
      sides += s.length
      if (s.length > 1) SetCross.recurCount(s, layer, delta, counts, ctr.factory(() => new TreeIndex))
    })
    val expect = refs.static(g).toSeq
    expectSame("tbcpp counted replay vs LocalAlgos.tbcPlusPlus", expect, counts.toSeq)
    m("core.wedges_raw") = (groups.raw.toDouble, "count")
    m("core.wedges_kept") = (groups.kept.toDouble, "count")
    m("core.lemma1_keep_ratio") = (groups.kept.toDouble / groups.raw, "ratio")
    m("core.groups") = (sizes.length.toDouble, "count")
    m("core.group_max") = (sizes.max, "count")
    m("core.group_p99") = (Stats.percentile(sizes.toSeq, 99), "count")
    m("core.butterflies") = (counts.sum.toDouble, "count")
    m("combine.sides") = (sides.toDouble, "count")
    m("setcross.cross_calls") = ((ctr.created / 4).toDouble, "count")
    m("index.inserts") = (ctr.inserts.toDouble, "count")
    m("index.delete_calls") = (ctr.deleteCalls.toDouble, "count")
    m("index.count_queries") = (ctr.countQueries.toDouble, "count")
    m("index.useful_query_ratio") = (ctr.usefulQueryRatio, "ratio")
    m("trace.overhead_ms.tbcpp") = (ms(tracedNs - tbcppWallNs), "ms")

    // TBE+: the enumeration recursion, counted through a sink.
    val tbep = LocalAlgos.tbePlus(g, delta, collect = false)._1
    chk.check(s"tbep total $tbep vs TBC++ sum ${expect.sum}", tbep == expect.sum)
    var emitted = 0L
    val sink = new SetCross.EnumSink {
      def emit(btype: Int, mid1: Long, s1: Long, a1: Long, mid2: Long, s2: Long, a2: Long): Unit =
        emitted += 1
    }
    var enumNs = 0L
    groups.foreach { (layer, ws) =>
      val s = LocalCombine.buildSides(ws, delta)
      val t0 = Clock.nanos()
      if (s.length > 1) SetCross.recurEnum(s, layer, delta, sink)
      enumNs += Clock.nanos() - t0
    }
    expectSame("tbep replay vs LocalAlgos.tbePlus", Seq(tbep), Seq(emitted))
    m("setcross.recur_ms.tbep") = (ms(enumNs), "ms")
  }

  /** Replays `SlidingWindow.run`'s protocol on a `StreamGraph` of its own:
    * fill the window, then per slide insert the stride and expire as many.
    */
  private final class StreamReplay(edges: IndexedSeq[TemporalEdge], window: Int, stride: Int, threads: Int) {
    val steps = ArrayBuffer.empty[Array[Long]]
    var fillNs = 0L
    val edgeNs = ArrayBuffer.empty[Double]
    val insertNs = ArrayBuffer.empty[Double]
    val deleteNs = ArrayBuffer.empty[Double]
    var batchWallNs = 0L
    var batchCpuNs = 0L

    private val g = new StreamGraph
    private val counts = new Array[Long](6)
    private def add(c: Array[Long], sign: Int): Unit = { var i = 0; while (i < 6) { counts(i) += sign * c(i); i += 1 } }

    private def batch(lo: Int, hi: Int, insert: Boolean, out: ArrayBuffer[Double]): Unit = {
      val b = edges.slice(lo, hi)
      val c0 = Clock.processCpu()
      val t0 = Clock.nanos()
      val c =
        if (insert) STBCPlus.insertBatch(g, b, delta, threads)
        else STBCPlus.deleteBatch(g, b, delta, threads)
      val t1 = Clock.nanos()
      batchCpuNs += Clock.processCpu() - c0
      batchWallNs += t1 - t0
      if (out != null) out += (t1 - t0).toDouble
      add(c, if (insert) 1 else -1)
    }

    private def perEdge(lo: Int, hi: Int, insert: Boolean, record: Boolean): Unit = {
      var i = lo
      while (i < hi) {
        val e = edges(i)
        if (insert) g.insert(e)
        val t0 = Clock.nanos()
        val c = STBC.countContaining(g, e, delta)
        if (record) edgeNs += (Clock.nanos() - t0).toDouble
        if (!insert) g.delete(e)
        add(c, if (insert) 1 else -1)
        i += 1
      }
    }

    def run(): this.type = {
      var end = math.min(window, edges.length)
      val t0 = Clock.nanos()
      if (threads == 0) perEdge(0, end, insert = true, record = false) else batch(0, end, insert = true, null)
      fillNs = Clock.nanos() - t0
      batchWallNs = 0; batchCpuNs = 0
      steps += counts.clone()
      var start = 0
      while (end < edges.length) {
        val newEnd = math.min(end + stride, edges.length)
        val newStart = start + (newEnd - end)
        if (threads == 0) {
          perEdge(end, newEnd, insert = true, record = true)
          perEdge(start, newStart, insert = false, record = true)
        } else {
          batch(end, newEnd, insert = true, insertNs)
          batch(start, newStart, insert = false, deleteNs)
        }
        start = newStart; end = newEnd
        steps += counts.clone()
      }
      this
    }
  }

  private def stream(in: Inputs, refs: References, k: Int, m: Metrics, chk: Checker): Unit = {
    val w = in.w
    val edges = in.stream
    val runs = StreamVariants(k).map { case (name, threads) =>
      // The program's own run: reference steps and untraced wall time.
      val steps = ArrayBuffer.empty[SlidingWindow.Step]
      val slideMs = ArrayBuffer.empty[Double]
      var last = Clock.nanos()
      val (_, wallNs) = timed(SlidingWindow.run(edges, w.window, w.stride, delta, threads, onStep = { s =>
        val now = Clock.nanos()
        if (s.index > 0) slideMs += (now - last) / 1e6
        steps += s
        last = now
      }))
      val (r, replayNs) = timed(new StreamReplay(edges, w.window, w.stride, threads).run())
      expectSame(s"$name batch replay step count vs SlidingWindow.run", Seq(steps.length), Seq(r.steps.length))
      steps.zip(r.steps).foreach { case (s, c) =>
        expectSame(s"$name replay step ${s.index} vs SlidingWindow.run", s.counts.toSeq, c.toSeq)
      }
      if (name == "stbcpk") m("stream.slide_ms_p50.stbcpk") = (Stats.median(slideMs.toSeq), "ms")
      m(s"stream.slide_ms_p95.$name") = (Stats.tailPercentile(slideMs.toSeq, 95), "ms")
      m(s"stream.fill_ms.$name") = (ms(r.fillNs), "ms")
      if (name == "stbc") m("stream.stbc_edge_us_p50") = (Stats.median(r.edgeNs.toSeq) / 1e3, "us")
      else {
        m(s"stream.insert_batch_ms_p50.$name") = (Stats.median(r.insertNs.toSeq) / 1e6, "ms")
        m(s"stream.delete_batch_ms_p50.$name") = (Stats.median(r.deleteNs.toSeq) / 1e6, "ms")
      }
      if (name == "stbcpk") {
        m("stream.cpu_util.stbcpk") = (r.batchCpuNs.toDouble / (r.batchWallNs.toDouble * k), "ratio")
        m("trace.overhead_ms.stbcpk") = (ms(replayNs - wallNs), "ms")
      }
      (name, steps.toSeq, r)
    }
    refs.checkStream(edges, runs.map(r => r._1 -> r._2), pin = None)
    val batchNs = runs.map(r => r._1 -> r._3.batchWallNs).toMap
    m("stream.speedup_k") = (batchNs("stbcp1").toDouble / batchNs("stbcpk"), "ratio")
  }

  private def sparkLayer(in: Inputs, refs: References, spark: SparkSession, m: Metrics, chk: Checker): Unit = {
    val df = SparkButterfly.edgesToDF(spark, in.spark).cache()
    df.count()
    // Warm-up, so the traced calls below are not the first of their kind.
    chk.sameCounts("spark warm-up count", refs.spark.toSeq, SparkButterfly.count(df, delta, Variant.PlusPlus).toSeq)
    SparkButterfly.wedges(df, delta, prune = true).count()

    val (rows, wedgesNs) = timed(SparkButterfly.wedges(df, delta, prune = true).count())
    val probe = new SparkProbe
    val (counts, span) = probe.around(spark)(SparkButterfly.count(df, delta, Variant.PlusPlus))
    df.unpersist(blocking = true)
    chk.sameCounts("spark traced count", refs.spark.toSeq, counts.toSeq)
    val tasks = probe.tasks.toSeq
    // The combine stage is found by the operator it computes. If the plan
    // no longer has exactly one, the skew metric cannot be told and reads 0.
    val combineStages = probe.stages.filter(_.isCombine).map(_.id).toSet
    val combine =
      if (combineStages.size == 1) tasks.filter(t => combineStages(t.stageId)).map(_.runMs.toDouble)
      else {
        System.err.println(s"  note: ${combineStages.size} combine stages; spark.combine_task_ms_max_over_median is unavailable (0)")
        Nil
      }
    m("spark.wedges_ms") = (ms(wedgesNs), "ms")
    m("spark.wedge_rows") = (rows.toDouble, "count")
    m("spark.stages") = (probe.stages.length.toDouble, "count")
    m("spark.tasks") = (tasks.length.toDouble, "count")
    m("spark.single_task_stages") = (probe.stages.count(_.numTasks == 1).toDouble, "count")
    m("spark.shuffle_write_mb") = (tasks.map(_.shuffleWriteBytes).sum / 1e6, "MB")
    m("spark.shuffle_read_mb") = (tasks.map(_.shuffleReadBytes).sum / 1e6, "MB")
    m("spark.executor_run_ms") = (tasks.map(_.runMs).sum.toDouble, "ms")
    m("spark.executor_cpu_ms") = (tasks.map(_.cpuNs).sum / 1e6, "ms")
    m("spark.gc_ms") = (tasks.map(_.gcMs).sum.toDouble, "ms")
    m("spark.driver_self_ms") = (Stats.selfTime(span, probe.stages.map(_.span).toSeq).toDouble, "ms")
    m("spark.combine_task_ms_max_over_median") =
      (if (combine.isEmpty) 0.0 else combine.max / math.max(1.0, Stats.median(combine)), "ratio")
  }
}
