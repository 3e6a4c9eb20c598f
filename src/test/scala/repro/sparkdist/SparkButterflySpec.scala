package repro.sparkdist

import repro.{SparkSpec, TestUtil}
import repro.core.{BruteForce, Instance, LocalAlgos, Variant}
import repro.graph.{LocalGraph, SynthBipartite, TemporalEdge}

/** The distributed pipeline must agree with the local drivers for every
  * variant, on counting and enumeration, across graph shapes.
  */
class SparkButterflySpec extends SparkSpec {

  private def df(edges: Seq[TemporalEdge]) = SparkButterfly.edgesToDF(spark, edges)

  private def check(edges: Seq[TemporalEdge], delta: Long, label: String): Unit = {
    val expected = BruteForce.countByType(edges, delta)
    for (variant <- Variant.all) {
      val got = SparkButterfly.count(df(edges), delta, variant)
      TestUtil.assertCountsEqual(expected, got, s"$label spark-${variant.name}")
    }
  }

  test("empty edges count zero") {
    val empty = df(Seq.empty[TemporalEdge])
    for (variant <- Variant.all) {
      assert(SparkButterfly.count(empty, 10, variant).toSeq == Seq.fill(6)(0L), variant.name)
      val found = SparkButterfly.enumerate(empty, 10, variant)
      assert((found.count(), found.collect().toSeq) == ((0L, Seq.empty[Instance])), variant.name)
    }
  }

  for ((name, stamps, slot) <- Seq(
      ("T0", (1L, 2L, 3L, 4L), 0), ("T1", (1L, 3L, 2L, 4L), 1),
      ("T3", (1L, 2L, 4L, 3L), 3), ("T4", (1L, 3L, 4L, 2L), 4)))
    test(s"spark pipeline classifies a single $name butterfly") {
      val edges = TestUtil.singleButterfly(stamps._1, stamps._2, stamps._3, stamps._4)
      val got = SparkButterfly.count(df(edges), 100, Variant.PlusPlus)
      assert(got(slot) == 1 && got.sum == 1)
    }

  for (seed <- 1 to 4)
    test(s"spark matches brute force on random graph (seed $seed)") {
      check(TestUtil.randomEdges(seed, 5, 6, 120, 80), 40, s"rand-$seed")
    }

  test("spark matches brute force under timestamp collisions") {
    check(TestUtil.randomEdges(42, 4, 4, 100, 9), 9, "collisions")
  }

  test("spark matches local TBC++ on a synthetic catalog graph") {
    val cfg = SynthBipartite.Config(nU = 30, nL = 50, nE = 800, spanDays = 200, seed = 7)
    val edges = SynthBipartite.generate(cfg)
    val delta = 40L * SynthBipartite.SecondsPerDay
    val local = LocalAlgos.tbcPlusPlus(LocalGraph.fromEdges(edges), delta)
    val dist = SparkButterfly.count(df(edges), delta, Variant.PlusPlus)
    TestUtil.assertCountsEqual(local, dist, "catalog")
  }

  test("spark enumeration matches brute-force instance multiset") {
    val edges = TestUtil.randomEdges(11, 4, 5, 90, 60)
    val want = BruteForce.enumerate(edges, 30).groupBy(identity).view.mapValues(_.size).toMap
    val got = SparkButterfly.enumerate(df(edges), 30).collect()
      .groupBy(identity).view.mapValues(_.size).toMap
    assert(got == want)
  }

  test("spark enumeration agrees between baseline and plus variants") {
    val edges = TestUtil.randomEdges(12, 4, 4, 80, 40)
    def ms(v: Variant): Map[Instance, Int] =
      SparkButterfly.enumerate(df(edges), 20, v).collect()
        .groupBy(identity).view.mapValues(_.size).toMap
    assert(ms(Variant.Baseline) == ms(Variant.Plus))
  }

  // One wedge's two timestamps lie 2^63 or more apart: `t2 - t1` once
  // overflowed in the Lemma-1 filter and failed the query.
  for ((label, delta) <- Seq(("100", 100L), ("Long.MaxValue", Long.MaxValue)))
    test(s"a span past the Long range never counts and never overflows: delta = $label") {
      val edges = TestUtil.singleButterfly(Long.MaxValue - 1, Long.MinValue + 5, Long.MinValue + 1, Long.MinValue + 6)
      assert(BruteForce.countByType(edges, delta).sum == 0L)
      for (variant <- Seq(Variant.Plus, Variant.PlusPlus))
        assert(SparkButterfly.count(df(edges), delta, variant).sum == 0L, s"spark-${variant.name}")
    }

  test("ids outside [-2^62, 2^62) are rejected with the range named") {
    val edges = Seq(TemporalEdge(1L << 62, 0, 1), TemporalEdge(1, 0, 2))
    val e = intercept[Exception](SparkButterfly.count(df(edges), 100, Variant.PlusPlus))
    val msg = Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null).map(_.getMessage).mkString(" | ")
    assert(msg.contains("[-2^62, 2^62)") && msg.contains(s"u = ${1L << 62}"), msg)
  }

  test("a negative delta is rejected on the driver") {
    val d = df(TestUtil.singleButterfly(1, 2, 3, 4))
    for (delta <- Seq(-1L, Long.MinValue)) {
      for (prune <- Seq(true, false))
        TestUtil.assertRejectsDelta(delta, s"wedges, prune = $prune")(SparkButterfly.wedges(d, delta, prune))
      for (v <- Variant.all) {
        TestUtil.assertRejectsDelta(delta, s"count ${v.name}")(SparkButterfly.count(d, delta, v))
        TestUtil.assertRejectsDelta(delta, s"enumerate ${v.name}")(SparkButterfly.enumerate(d, delta, v))
      }
    }
  }

  test("wedge DataFrame honors priority and pruning") {
    val edges = TestUtil.randomEdges(13, 4, 4, 60, 50)
    val pruned = SparkButterfly.wedges(df(edges), 10, prune = true).collect()
    assert(pruned.forall(w => w.t1 != w.t2 && math.abs(w.t2 - w.t1) <= 10))
    val all = SparkButterfly.wedges(df(edges), 10, prune = false).collect()
    assert(all.length >= pruned.length)
    // every wedge starts and ends on different vertices of the same layer
    assert(all.forall(w => (w.a & 1) == (w.w & 1) && w.a != w.w && (w.m & 1) != (w.a & 1)))

    // Priority on the driver: (degree, folded id), upper u as 2u, lower v as 2v + 1.
    val halves = edges.flatMap(e => Seq((2 * e.u, 2 * e.v + 1, e.t), (2 * e.v + 1, 2 * e.u, e.t)))
    val deg = halves.groupBy(_._1).view.mapValues(_.size).toMap
    def above(x: Long, y: Long) = deg(x) > deg(y) || (deg(x) == deg(y) && x > y)
    def sorted(rows: Seq[SparkButterfly.WedgeRow]) = rows.sortBy(r => (r.a, r.w, r.m, r.t1, r.t2))
    for ((prune, got) <- Seq((true, pruned), (false, all))) {
      assert(got.forall(r => above(r.a, r.m) && above(r.a, r.w)), s"prune = $prune")
      val want = for {
        (m, a, t1) <- halves
        (m2, w, t2) <- halves
        if m == m2 && above(a, m) && above(a, w) && (!prune || (t1 != t2 && math.abs(t2 - t1) <= 10))
      } yield SparkButterfly.WedgeRow(a, w, m, t1, t2)
      assert(sorted(got.toSeq) == sorted(want), s"prune = $prune")
      // Degrees come from window counts, not from a joined-back aggregate.
      val plan = SparkButterfly.wedges(df(edges), 10, prune).queryExecution.executedPlan.toString
      assert(!plan.contains("HashAggregate"), plan)
    }
  }
}
