package repro.stream

import org.scalatest.funsuite.AnyFunSuite

import repro.TestUtil
import repro.core.{BruteForce, LocalAlgos}
import repro.graph.{LocalGraph, TemporalEdge}

/** Streaming correctness: STBC/STBC+ increments must keep the maintained
  * counts equal to a from-scratch recount of the live window at all times.
  */
class StreamSpec extends AnyFunSuite {

  private def sortedStream(seed: Int, nU: Int, nL: Int, nE: Int, tMax: Long) =
    TestUtil.randomEdges(seed, nU, nL, nE, tMax).sortBy(_.t)

  // ---------- StreamGraph substrate ----------

  test("stream graph insert/degree/numEdges") {
    val g = new StreamGraph
    g.insert(TemporalEdge(0, 0, 1))
    g.insert(TemporalEdge(0, 1, 2))
    g.insert(TemporalEdge(1, 0, 3))
    assert(g.numEdges == 3)
    assert(g.liveDegree(g.upperSlot(0)) == 2)
    assert(g.liveDegree(g.lowerSlot(0)) == 2)
  }

  test("stream graph rejects out-of-order insertion") {
    val g = new StreamGraph
    g.insert(TemporalEdge(0, 0, 10))
    intercept[IllegalArgumentException](g.insert(TemporalEdge(0, 0, 5)))
  }

  /** Every live edge of the given vertices, per vertex, in time order. */
  private def contents(g: StreamGraph, uppers: Seq[Long], lowers: Seq[Long]) =
    (uppers.map(g.upperSlot) ++ lowers.map(g.lowerSlot)).map { s =>
      val out = scala.collection.mutable.ArrayBuffer.empty[(Int, Long)]
      g.foreachInRange(s, Long.MinValue, loStrict = false, Long.MaxValue, hiStrict = false)(
        (n, t) => out += ((n, t)))
      (s, g.liveDegree(s), out.toList)
    }

  test("stream graph accepts any Long id, and a rejected insert changes nothing") {
    // Upper ids 1 and Long.MinValue + 1 once folded into one key (2u).
    val edges = IndexedSeq(
      TemporalEdge(1, 0, 1), TemporalEdge(Long.MinValue + 1, 0, 2),
      TemporalEdge(1, Long.MaxValue, 3), TemporalEdge(Long.MinValue + 1, Long.MaxValue, 4))
    val g = new StreamGraph
    edges.foreach(g.insert)
    assert(g.numEdges == 4)
    for (u <- Seq(1L, Long.MinValue + 1)) assert(g.liveDegree(g.upperSlot(u)) == 2)
    assert(g.liveDegree(g.lowerSlot(Long.MaxValue)) == 2)
    val want = BruteForce.countByType(edges, 10)
    assert(want.sum == 1L)
    TestUtil.assertCountsEqual(want, STBC.countContaining(g, edges.last, 10), "STBC")
    TestUtil.assertCountsEqual(want, STBCPlus.insertBatch(new StreamGraph, edges, 10), "STBC+")

    // Upper 0 would take a half-edge to lower 1 before lower 1's check failed.
    val h = new StreamGraph
    h.insert(TemporalEdge(0, 0, 10))
    h.insert(TemporalEdge(1, 1, 20))
    val before = contents(h, Seq(0, 1), Seq(0, 1))
    for (e <- Seq(TemporalEdge(0, 1, 15), TemporalEdge(7, 1, 15))) {
      val err = intercept[IllegalArgumentException](h.insert(e))
      assert(err.getMessage.contains(e.toString), err.getMessage)
    }
    assert(h.numEdges == 2 && contents(h, Seq(0, 1), Seq(0, 1)) == before)
    assert(h.upperSlot(7) == -1)
  }

  test("stream graph oldest-first deletion and compaction") {
    val g = new StreamGraph
    val edges = (1 to 300).map(i => TemporalEdge(0, (i % 3).toLong, i.toLong))
    edges.foreach(g.insert)
    edges.take(250).foreach(g.delete)
    assert(g.numEdges == 50)
    var seen = 0
    g.foreachInRange(g.upperSlot(0), Long.MinValue, loStrict = false,
      Long.MaxValue, hiStrict = false)((_, _) => seen += 1)
    assert(seen == 50)
  }

  test("stream graph deletes only the oldest live edge of both endpoints") {
    val g = new StreamGraph
    val edges = Seq(TemporalEdge(0, 0, 1), TemporalEdge(0, 1, 2), TemporalEdge(1, 1, 3))
    edges.foreach(g.insert)
    // oldest edge of lower vertex 1, but not of upper vertex 0
    intercept[IllegalArgumentException](g.delete(edges(1)))
    intercept[IllegalArgumentException](g.delete(TemporalEdge(0, 0, 9)))
    intercept[IllegalArgumentException](g.delete(TemporalEdge(7, 7, 1)))
    assert(g.numEdges == 3)
    edges.foreach(g.delete)
    assert(g.numEdges == 0)
  }

  test("stream graph range query boundary semantics") {
    val g = new StreamGraph
    Seq(1L, 3L, 5L, 7L).foreach(t => g.insert(TemporalEdge(0, t, t)))
    def collect(lo: Long, loS: Boolean, hi: Long, hiS: Boolean) = {
      val out = scala.collection.mutable.ArrayBuffer.empty[Long]
      g.foreachInRange(g.upperSlot(0), lo, loS, hi, hiS)((_, t) => out += t)
      out.toSeq
    }
    assert(collect(3, loS = false, 5, hiS = false) == Seq(3L, 5L))
    assert(collect(3, loS = true, 7, hiS = true) == Seq(5L))
    assert(collect(0, loS = false, 100, hiS = false) == Seq(1L, 3L, 5L, 7L))
  }

  // ---------- STBC: single-edge counting ----------

  test("STBC counts butterflies containing the last edge (single butterfly)") {
    val g = new StreamGraph
    val edges = TestUtil.singleButterfly(1, 2, 3, 4).sortBy(_.t)
    edges.foreach(g.insert)
    val c = STBC.countContaining(g, edges.last, 100)
    assert(c.sum == 1 && c(0) == 1)
  }

  for (seed <- 1 to 6)
    test(s"STBC insert-one-at-a-time reproduces the full count (seed $seed)") {
      val edges = sortedStream(seed, 5, 5, 120, 200)
      val delta = 60L
      val g = new StreamGraph
      val counts = new Array[Long](6)
      edges.foreach { e =>
        g.insert(e)
        val c = STBC.countContaining(g, e, delta)
        for (i <- 0 until 6) counts(i) += c(i)
      }
      TestUtil.assertCountsEqual(BruteForce.countByType(edges, delta), counts, s"stbc-ins-$seed")
    }

  for (seed <- 7 to 10)
    test(s"STBC delete-one-at-a-time empties the counts (seed $seed)") {
      val edges = sortedStream(seed, 4, 5, 100, 150)
      val delta = 50L
      val g = new StreamGraph
      val counts = BruteForce.countByType(edges, delta).clone()
      edges.foreach(g.insert)
      edges.foreach { e =>
        val c = STBC.countContaining(g, e, delta)
        for (i <- 0 until 6) counts(i) -= c(i)
        g.delete(e)
      }
      assert(counts.forall(_ == 0L), s"leftover: ${counts.mkString(",")}")
    }

  // Range bounds such as `t + delta` must saturate: wrapping once made STBC
  // and STBC+ return zero on these inputs. At Long.MinValue, TBC++'s sweep
  // (inside STBC) once stopped early and STBC+'s time reversal by negation
  // once mapped Long.MinValue to itself.
  for ((label, t0, delta) <- Seq(
      ("delta = Long.MaxValue", 10L, Long.MaxValue),
      ("timestamps near Long.MaxValue", Long.MaxValue - 90, 100L),
      ("timestamps from Long.MinValue", Long.MinValue, 100L)))
    test(s"stream counters do not overflow time bounds: $label") {
      val edges = TestUtil.singleButterfly(t0, t0 + 10, t0 + 20, t0 + 30).sortBy(_.t)
      val want = BruteForce.countByType(edges, delta)
      assert(want.sum == 1L)
      val g = new StreamGraph
      edges.foreach(g.insert)
      TestUtil.assertCountsEqual(want, STBC.countContaining(g, edges.head, delta), s"$label STBC first")
      TestUtil.assertCountsEqual(want, STBC.countContaining(g, edges.last, delta), s"$label STBC last")
      for (threads <- Seq(1, 4)) {
        val g2 = new StreamGraph
        TestUtil.assertCountsEqual(want, STBCPlus.insertBatch(g2, edges, delta, threads), s"$label STBC+-$threads insert")
        TestUtil.assertCountsEqual(want, STBCPlus.deleteBatch(g2, edges, delta, threads), s"$label STBC+-$threads delete")
      }
    }

  // At delta = Long.MinValue, `-delta` is Long.MinValue again, so STBC+'s
  // insert range [t - delta, t) once took in every earlier edge and the
  // sliding window reported ~49,000 butterflies on this stream, which has
  // none within a negative delta.
  test("stream counters reject a negative delta before changing the graph") {
    val edges = sortedStream(3, 5, 6, 200, 300)
    for (delta <- Seq(-1L, Long.MinValue)) {
      val g = new StreamGraph
      edges.take(100).foreach(g.insert)
      TestUtil.assertRejectsDelta(delta, "STBC")(STBC.countContaining(g, edges(99), delta))
      for (asMin <- Seq(true, false))
        TestUtil.assertRejectsDelta(delta, s"countExtreme asMin = $asMin")(
          STBCPlus.countExtreme(g, edges(0), delta, asMin))
      TestUtil.assertRejectsDelta(delta, "insertBatch")(STBCPlus.insertBatch(g, edges.slice(100, 120), delta))
      TestUtil.assertRejectsDelta(delta, "deleteBatch")(STBCPlus.deleteBatch(g, edges.take(20), delta))
      assert(g.numEdges == 100)
      for (threads <- Seq(0, 1, 3))
        TestUtil.assertRejectsDelta(delta, s"sliding window, threads = $threads")(
          SlidingWindow.run(edges, window = 200, stride = 50, delta, threads))
    }
  }

  // ---------- STBC+: batch counting ----------

  for (seed <- 1 to 5)
    test(s"STBC+ insertBatch equals full recount (seed $seed)") {
      val edges = sortedStream(seed * 13, 5, 6, 140, 250)
      val delta = 70L
      val g = new StreamGraph
      val counts = new Array[Long](6)
      edges.grouped(30).foreach { batch =>
        val c = STBCPlus.insertBatch(g, batch, delta)
        for (i <- 0 until 6) counts(i) += c(i)
      }
      TestUtil.assertCountsEqual(BruteForce.countByType(edges, delta), counts, s"batch-ins-$seed")
    }

  for (seed <- 6 to 9)
    test(s"STBC+ deleteBatch drains the counts (seed $seed)") {
      val edges = sortedStream(seed * 7, 5, 5, 120, 200)
      val delta = 55L
      val g = new StreamGraph
      edges.foreach(g.insert)
      val counts = BruteForce.countByType(edges, delta).clone()
      edges.grouped(25).foreach { batch =>
        val c = STBCPlus.deleteBatch(g, batch, delta)
        for (i <- 0 until 6) counts(i) -= c(i)
      }
      assert(counts.forall(_ == 0L), s"leftover: ${counts.mkString(",")}")
    }

  test("STBC+ multi-threaded equals single-threaded") {
    val edges = sortedStream(31, 6, 6, 200, 300)
    val delta = 80L
    val g1 = new StreamGraph
    val g4 = new StreamGraph
    val c1 = STBCPlus.insertBatch(g1, edges, delta, threads = 1)
    val c4 = STBCPlus.insertBatch(g4, edges, delta, threads = 4)
    TestUtil.assertCountsEqual(c1, c4, "threads")
  }

  test("STBC+ countExtreme asMin/asMax are consistent duals") {
    // every butterfly has exactly one min edge and one max edge, so summing
    // per-edge asMin counts equals summing per-edge asMax counts
    val edges = sortedStream(17, 4, 4, 90, 120)
    val delta = 45L
    val g = new StreamGraph
    edges.foreach(g.insert)
    val mins = new Array[Long](6)
    val maxs = new Array[Long](6)
    edges.foreach { e =>
      val a = STBCPlus.countExtreme(g, e, delta, asMin = true)
      val b = STBCPlus.countExtreme(g, e, delta, asMin = false)
      for (i <- 0 until 6) { mins(i) += a(i); maxs(i) += b(i) }
    }
    TestUtil.assertCountsEqual(mins, maxs, "min/max duality")
    TestUtil.assertCountsEqual(BruteForce.countByType(edges, delta), mins, "min vs exact")
  }

  for (seed <- 11 to 13)
    test(s"STBC containment counts sum to 4x the totals (seed $seed)") {
      // every temporal butterfly contains exactly 4 edges, so summing
      // countContaining over all edges must quadruple the exact counts
      val edges = sortedStream(seed * 3, 5, 5, 110, 180)
      val delta = 60L
      val g = new StreamGraph
      edges.foreach(g.insert)
      val sums = new Array[Long](6)
      edges.foreach { e =>
        val c = STBC.countContaining(g, e, delta)
        for (i <- 0 until 6) sums(i) += c(i)
      }
      val exact = BruteForce.countByType(edges, delta)
      TestUtil.assertCountsEqual(exact.map(_ * 4), sums, s"4x-$seed")
    }

  // ---------- sliding window ----------

  private def windowRecount(edges: IndexedSeq[TemporalEdge], lo: Int, hi: Int, delta: Long) =
    LocalAlgos.tbcPlusPlus(LocalGraph.fromEdges(edges.slice(lo, hi)), delta)

  for ((threads, tag) <- Seq(0 -> "STBC", 1 -> "STBC+-1", 4 -> "STBC+-4"))
    test(s"sliding window with $tag matches a recount at every step") {
      val edges = sortedStream(100 + threads, 6, 7, 240, 400)
      val delta = 90L
      SlidingWindow.run(edges, window = 80, stride = 25, delta, threads = threads,
        onStep = { step =>
          val expect = windowRecount(edges, step.windowStart, step.windowEnd, delta)
          TestUtil.assertCountsEqual(expect, step.counts, s"$tag step ${step.index}")
        })
    }

  test("sliding window final counts equal last-window recount") {
    val edges = sortedStream(55, 5, 6, 200, 300)
    val delta = 75L
    val fin = SlidingWindow.run(edges, window = 60, stride = 20, delta, threads = 2)
    var lastStep: SlidingWindow.Step = null
    SlidingWindow.run(edges, window = 60, stride = 20, delta, threads = 0,
      onStep = s => lastStep = s)
    TestUtil.assertCountsEqual(
      windowRecount(edges, lastStep.windowStart, lastStep.windowEnd, delta), fin, "final")
  }

  test("sliding window rejects bad parameters") {
    val edges = sortedStream(1, 3, 3, 30, 50)
    intercept[IllegalArgumentException](SlidingWindow.run(edges, 0, 1, 10))
    val err = intercept[IllegalArgumentException](SlidingWindow.run(edges, 10, 20, 10))
    assert(err.getMessage.contains("window = 10, stride = 20"), err.getMessage)
  }

  test("sliding window rejects a negative thread count, naming it") {
    val edges = sortedStream(1, 3, 3, 30, 50)
    val e = intercept[IllegalArgumentException](SlidingWindow.run(edges, 10, 5, 10, threads = -2))
    assert(e.getMessage.contains("-2"), e.getMessage)
  }

  test("STBC+ batches reject fewer than one thread, naming it, before changing the graph") {
    val edges = sortedStream(2, 4, 4, 60, 80)
    val g = new StreamGraph
    edges.take(40).foreach(g.insert)
    for (threads <- Seq(0, -3)) {
      val ins = intercept[IllegalArgumentException](STBCPlus.insertBatch(g, edges.slice(40, 50), 20, threads))
      assert(ins.getMessage.contains(s"got $threads"), ins.getMessage)
      val del = intercept[IllegalArgumentException](STBCPlus.deleteBatch(g, edges.take(10), 20, threads))
      assert(del.getMessage.contains(s"got $threads"), del.getMessage)
    }
    assert(g.numEdges == 40)
  }

  test("a rejected STBC+ batch leaves the graph as it was") {
    val g = new StreamGraph
    val live = Seq(TemporalEdge(0, 0, 10), TemporalEdge(0, 1, 20), TemporalEdge(1, 1, 30))
    live.foreach(g.insert)
    val before = contents(g, Seq(0, 1, 2), Seq(0, 1, 2))
    val badInserts = Seq(
      Seq(TemporalEdge(2, 2, 35), TemporalEdge(1, 2, 31)),  // out of order
      Seq(TemporalEdge(2, 2, 25), TemporalEdge(1, 2, 28)))  // older than upper 1's newest
    for (b <- badInserts) {
      val err = intercept[IllegalArgumentException](STBCPlus.insertBatch(g, b, 100))
      assert(err.getMessage.contains(b.last.toString), err.getMessage)
      assert(contents(g, Seq(0, 1, 2), Seq(0, 1, 2)) == before, s"after inserting $b")
    }
    val badDeletes = Seq(
      Seq(TemporalEdge(0, 0, 10), TemporalEdge(1, 1, 30)), // lower 1 still holds (0, 1, 20)
      Seq(TemporalEdge(0, 0, 10), TemporalEdge(0, 0, 10)), // the same edge twice
      Seq(TemporalEdge(0, 0, 10), TemporalEdge(2, 2, 40))) // never inserted
    for (b <- badDeletes) {
      val err = intercept[IllegalArgumentException](STBCPlus.deleteBatch(g, b, 100))
      assert(err.getMessage.contains(b.last.toString), err.getMessage)
      assert(contents(g, Seq(0, 1, 2), Seq(0, 1, 2)) == before, s"after deleting $b")
    }
    // Each edge is oldest at both endpoints once the earlier ones are gone.
    STBCPlus.deleteBatch(g, live, 100)
    assert(g.numEdges == 0)
  }

  test("sliding window rejects unsorted streams") {
    val edges = IndexedSeq(TemporalEdge(0, 0, 5), TemporalEdge(1, 1, 1))
    intercept[IllegalArgumentException](SlidingWindow.run(edges, 2, 1, 10))
    // The error names the first out-of-order pair.
    val later = IndexedSeq(TemporalEdge(0, 0, 1), TemporalEdge(0, 1, 5), TemporalEdge(1, 1, 3))
    val err = intercept[IllegalArgumentException](SlidingWindow.run(later, 2, 1, 10))
    assert(err.getMessage.contains(s"${later(2)} after ${later(1)}"), err.getMessage)
  }
}
