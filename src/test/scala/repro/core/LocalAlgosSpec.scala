package repro.core

import org.scalatest.funsuite.AnyFunSuite

import repro.TestUtil
import repro.graph.{Datasets, LocalGraph, SynthBipartite, TemporalEdge}

/** Cross-validates the three counting algorithms against the brute-force
  * reference and against each other over a spread of graph shapes.
  */
class LocalAlgosSpec extends AnyFunSuite {

  private def checkAll(edges: Seq[TemporalEdge], delta: Long, label: String): Unit = {
    val expected = BruteForce.countByType(edges, delta)
    val g = LocalGraph.fromEdges(edges)
    TestUtil.assertCountsEqual(expected, LocalAlgos.tbc(g, delta), s"$label TBC")
    TestUtil.assertCountsEqual(expected, LocalAlgos.tbcPlus(g, delta), s"$label TBC+")
    TestUtil.assertCountsEqual(expected, LocalAlgos.tbcPlusPlus(g, delta), s"$label TBC++")
  }

  test("empty graph counts zero") {
    checkAll(Seq.empty, 100, "empty")
  }

  test("single edge counts zero") {
    checkAll(Seq(TemporalEdge(0, 0, 5)), 100, "single edge")
  }

  test("a wedge is not a butterfly") {
    checkAll(Seq(TemporalEdge(0, 0, 1), TemporalEdge(1, 0, 2)), 100, "wedge")
  }

  for ((name, (tuv, twv, tux, twx), expected) <- Seq(
      ("T0", (1L, 2L, 3L, 4L), 0),
      ("T1", (1L, 3L, 2L, 4L), 1),
      ("T2", (1L, 4L, 2L, 3L), 2),
      ("T3", (1L, 2L, 4L, 3L), 3),
      ("T4", (1L, 3L, 4L, 2L), 4),
      ("T5", (1L, 4L, 3L, 2L), 5)))
    test(s"single butterfly of type $name lands in slot $expected for all algorithms") {
      val edges = TestUtil.singleButterfly(tuv, twv, tux, twx)
      val want = Array.tabulate(6)(i => if (i == expected) 1L else 0L)
      val g = LocalGraph.fromEdges(edges)
      TestUtil.assertCountsEqual(want, BruteForce.countByType(edges, 100), s"$name brute")
      TestUtil.assertCountsEqual(want, LocalAlgos.tbc(g, 100), s"$name TBC")
      TestUtil.assertCountsEqual(want, LocalAlgos.tbcPlus(g, 100), s"$name TBC+")
      TestUtil.assertCountsEqual(want, LocalAlgos.tbcPlusPlus(g, 100), s"$name TBC++")
    }

  test("duration constraint is inclusive: span exactly delta counts") {
    val edges = TestUtil.singleButterfly(1, 2, 3, 11)
    checkAll(edges, 10, "span == delta")
    assert(LocalAlgos.tbc(LocalGraph.fromEdges(edges), 10).sum == 1)
  }

  test("duration constraint: span delta+1 does not count") {
    val edges = TestUtil.singleButterfly(1, 2, 3, 12)
    checkAll(edges, 10, "span == delta+1")
    assert(LocalAlgos.tbc(LocalGraph.fromEdges(edges), 10).sum == 0)
  }

  // Bounds such as `maxn + delta` must saturate: wrapping once made every
  // optimized variant return zero on these inputs. A start time of
  // Long.MinValue once ended the SetCross sweep before its round.
  for ((label, t0, delta) <- Seq(
      ("delta = Long.MaxValue", 10L, Long.MaxValue),
      ("timestamps near Long.MaxValue", Long.MaxValue - 90, 100L),
      ("timestamps from Long.MinValue", Long.MinValue, 100L)))
    test(s"time bounds do not overflow: $label") {
      val edges = TestUtil.singleButterfly(t0, t0 + 10, t0 + 20, t0 + 30)
      val g = LocalGraph.fromEdges(edges)
      checkAll(edges, delta, label)
      assert(BruteForce.countByType(edges, delta).toSeq == Seq(1L, 0L, 0L, 0L, 0L, 0L))
      assert(LocalAlgos.tbePlus(g, delta, collect = false)._1 == 1L, s"$label TBE+")
    }

  // Timestamps 2^63 or more apart: `hi - lo` and `|t2 - t1|` once wrapped
  // negative and passed the duration check, in every edge assignment.
  for ((label, delta) <- Seq(("100", 100L), ("Long.MaxValue", Long.MaxValue)))
    test(s"a span past the Long range never counts: delta = $label") {
      val stamps = Seq(Long.MinValue + 1, Long.MinValue + 5, Long.MinValue + 6, Long.MaxValue - 1)
      for (p <- stamps.permutations) {
        val edges = TestUtil.singleButterfly(p(0), p(1), p(2), p(3))
        val g = LocalGraph.fromEdges(edges)
        val at = p.mkString("stamps ", ", ", "")
        checkAll(edges, delta, at)
        assert(BruteForce.countByType(edges, delta).sum == 0L, s"$at brute")
        assert(LocalAlgos.tbe(g, delta, collect = false)._1 == 0L, s"$at TBE")
        assert(LocalAlgos.tbePlus(g, delta, collect = false)._1 == 0L, s"$at TBE+")
      }
    }

  test("a negative delta is rejected by every variant") {
    val g = LocalGraph.fromEdges(TestUtil.randomEdges(3, 5, 6, 200, 300))
    for (delta <- Seq(-1L, Long.MinValue); v <- Variant.all) {
      TestUtil.assertRejectsDelta(delta, s"count ${v.name}")(LocalAlgos.count(g, delta, v))
      TestUtil.assertRejectsDelta(delta, s"enumerate ${v.name}")(
        LocalAlgos.enumerate(g, delta, v, collect = true))
    }
  }

  test("equal timestamps kill the butterfly") {
    val edges = TestUtil.singleButterfly(1, 2, 2, 4)
    checkAll(edges, 100, "equal stamps")
    assert(LocalAlgos.tbcPlusPlus(LocalGraph.fromEdges(edges), 100).sum == 0)
  }

  test("multi-edges between the same pair yield multiple butterflies") {
    // two parallel (u0,l0) edges -> two distinct temporal butterflies
    val edges = TestUtil.singleButterfly(1, 2, 3, 4) :+ TemporalEdge(0, 0, 5)
    checkAll(edges, 100, "parallel edges")
    assert(LocalAlgos.tbcPlusPlus(LocalGraph.fromEdges(edges), 100).sum == 2)
  }

  test("paper example shape: tighter delta removes butterflies") {
    // two butterflies sharing three edges; the wider delta keeps both
    val edges = IndexedSeq(
      TemporalEdge(2, 4, 1), TemporalEdge(3, 4, 6),
      TemporalEdge(2, 5, 11), TemporalEdge(3, 5, 16),
      TemporalEdge(3, 5, 9))
    val wide = BruteForce.countByType(edges, 15).sum
    val tight = BruteForce.countByType(edges, 10).sum
    assert(wide == 2 && tight == 1)
    checkAll(edges, 15, "delta 15")
    checkAll(edges, 10, "delta 10")
  }

  // --- randomized equivalence sweeps over different shapes ---
  for (seed <- 1 to 10)
    test(s"random dense small graph matches brute force (seed $seed)") {
      checkAll(TestUtil.randomEdges(seed, 4, 4, 120, 50), 25, s"dense-$seed")
    }

  for (seed <- 11 to 18)
    test(s"random sparse graph matches brute force (seed $seed)") {
      checkAll(TestUtil.randomEdges(seed, 20, 30, 200, 1000), 200, s"sparse-$seed")
    }

  for (seed <- 19 to 24)
    test(s"random graph with heavy timestamp collisions (seed $seed)") {
      checkAll(TestUtil.randomEdges(seed, 5, 5, 150, 8), 8, s"collide-$seed")
    }

  for (seed <- 25 to 30)
    test(s"skewed star-heavy graph (seed $seed)") {
      // one hub upper vertex: exercises the extreme case of § 4.4
      val rnd = new scala.util.Random(seed)
      val edges = IndexedSeq.fill(180)(TemporalEdge(
        if (rnd.nextInt(3) == 0) rnd.nextInt(6).toLong else 0L,
        rnd.nextInt(12).toLong, rnd.nextInt(300).toLong))
      checkAll(edges, 80, s"star-$seed")
    }

  for (delta <- Seq(1L, 5L, 20L, 100L, 1000000L))
    test(s"delta sweep on one graph (delta=$delta)") {
      checkAll(TestUtil.randomEdges(99, 6, 6, 160, 200), delta, s"delta-$delta")
    }

  test("counts are monotone in delta") {
    val edges = TestUtil.randomEdges(123, 8, 8, 200, 500)
    val g = LocalGraph.fromEdges(edges)
    val sums = Seq(10L, 50L, 100L, 250L, 500L).map(d => LocalAlgos.tbcPlusPlus(g, d).sum)
    assert(sums == sums.sorted)
  }

  test("synthetic catalog graphs at micro scale agree across algorithms") {
    for (spec <- Datasets.all.take(4)) {
      val cfg = spec.cfg.copy(nE = 400, nU = math.min(spec.cfg.nU, 40),
        nL = math.min(spec.cfg.nL, 60), spanDays = 120)
      val edges = SynthBipartite.generate(cfg)
      checkAll(edges, Datasets.DefaultDeltaSeconds, s"catalog-${spec.key}")
    }
  }

  test("deadline aborts long runs with BenchTimeout") {
    val edges = TestUtil.randomEdges(7, 3, 3, 400, 100)
    val g = LocalGraph.fromEdges(edges)
    val expired = System.nanoTime() - 1
    intercept[BenchTimeout](LocalAlgos.tbc(g, 100, deadline = expired))
    intercept[BenchTimeout](LocalAlgos.tbcPlus(g, 100, deadline = expired))
    intercept[BenchTimeout](LocalAlgos.tbcPlusPlus(g, 100, deadline = expired))
    intercept[BenchTimeout](LocalAlgos.tbe(g, 100, collect = false, deadline = expired))
    intercept[BenchTimeout](LocalAlgos.tbePlus(g, 100, collect = false, deadline = expired))
    // Every worker of the aborted calls has stopped: normal calls are whole.
    checkAll(edges, 100, "after timeouts")
    assert(LocalAlgos.tbePlus(g, 100, collect = false)._1 == BruteForce.countByType(edges, 100).sum)
  }

  /** One upper vertex joined to most lowers, plus random edges: that hub
    * is the start vertex of most wedge groups, so the workers share its
    * groups rather than each combining whole start vertices.
    */
  private def hubDominated(seed: Long): IndexedSeq[TemporalEdge] = {
    val rnd = new scala.util.Random(seed)
    val hub = IndexedSeq.tabulate(90)(i => TemporalEdge(0, i % 30, rnd.nextInt(400).toLong))
    hub ++ IndexedSeq.fill(160)(TemporalEdge(
      1 + rnd.nextInt(40).toLong, rnd.nextInt(30).toLong, rnd.nextInt(400).toLong))
  }

  for (seed <- 31 to 34)
    test(s"hub-dominated graph: shared groups match brute force (seed $seed)") {
      val edges = hubDominated(seed)
      val g = LocalGraph.fromEdges(edges)
      checkAll(edges, 60, s"hub-$seed")
      val total = BruteForce.countByType(edges, 60).sum
      assert(total > 0)
      assert(LocalAlgos.tbe(g, 60, collect = false)._1 == total, s"hub-$seed TBE")
      assert(LocalAlgos.tbePlus(g, 60, collect = false)._1 == total, s"hub-$seed TBE+")
    }

  test("hub-dominated graph: deadline aborts every variant and later calls are whole") {
    val edges = hubDominated(35)
    val g = LocalGraph.fromEdges(edges)
    val expired = System.nanoTime() - 1
    intercept[BenchTimeout](LocalAlgos.tbc(g, 60, deadline = expired))
    intercept[BenchTimeout](LocalAlgos.tbcPlus(g, 60, deadline = expired))
    intercept[BenchTimeout](LocalAlgos.tbcPlusPlus(g, 60, deadline = expired))
    intercept[BenchTimeout](LocalAlgos.tbe(g, 60, collect = false, deadline = expired))
    intercept[BenchTimeout](LocalAlgos.tbePlus(g, 60, collect = false, deadline = expired))
    checkAll(edges, 60, "hub after timeouts")
    val (n, found) = LocalAlgos.tbePlus(g, 60)
    assert(n == BruteForce.countByType(edges, 60).sum && found.length == n)
    assert(found.sortBy(_.toString) == BruteForce.enumerate(edges, 60).sortBy(_.toString))
  }

  test("collected TBE+ instances come in the same order on every call") {
    val edges = TestUtil.randomEdges(42, 12, 14, 500, 400)
    val g = LocalGraph.fromEdges(edges)
    val (n1, first) = LocalAlgos.tbePlus(g, 150)
    val (n2, second) = LocalAlgos.tbePlus(g, 150)
    assert(n1 > 100 && n1 == n2 && first.length == n1)
    assert(first == second)
    assert(first.sortBy(_.toString) == BruteForce.enumerate(edges, 150).sortBy(_.toString))
  }
}
