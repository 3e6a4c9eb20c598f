package repro.graph

import org.scalatest.funsuite.AnyFunSuite

/** Generator + catalog sanity: determinism, sizes, shape preservation. */
class SynthBipartiteSpec extends AnyFunSuite {

  private val cfg = SynthBipartite.Config(nU = 40, nL = 80, nE = 2000, spanDays = 365, seed = 5)

  test("generation is deterministic in the seed") {
    val a = SynthBipartite.generate(cfg)
    val b = SynthBipartite.generate(cfg)
    assert(a == b)
    val c = SynthBipartite.generate(cfg.copy(seed = 6))
    assert(a != c)
  }

  test("edge count, id ranges and time span are honored") {
    val edges = SynthBipartite.generate(cfg)
    assert(edges.length == cfg.nE)
    assert(edges.forall(e => e.u >= 0 && e.u < cfg.nU))
    assert(edges.forall(e => e.v >= 0 && e.v < cfg.nL))
    val span = cfg.spanDays * SynthBipartite.SecondsPerDay
    assert(edges.forall(e => e.t >= 0 && e.t < span))
  }

  test("edges are chronologically sorted (stream-ready)") {
    val edges = SynthBipartite.generate(cfg)
    assert(edges.sliding(2).forall(p => p.length < 2 || p(0).t <= p(1).t))
  }

  test("degree distribution is skewed (zipf background)") {
    val edges = SynthBipartite.generate(cfg.copy(burstFrac = 0.0))
    val degs = edges.groupBy(_.u).view.mapValues(_.size).values.toSeq.sorted.reverse
    // top vertex should dominate the median by a wide margin under zipf
    assert(degs.head > degs(degs.length / 2) * 3)
  }

  test("bursts create temporal locality (butterflies exist at delta = 40d)") {
    val edges = SynthBipartite.generate(cfg)
    val counts = repro.core.BruteForce.countByType(
      edges.take(600), 40L * SynthBipartite.SecondsPerDay)
    assert(counts.sum > 0)
  }

  test("catalog covers the 11 datasets of Table 3 with paper statistics") {
    assert(Datasets.all.map(_.key) ==
      Seq("WQ", "WN", "SO", "CU", "BS", "TW", "AM", "ER", "EP", "LF", "WT"))
    assert(Datasets.all.forall(s => s.paperE > 0 && s.paperU > 0 && s.paperL > 0))
    // paper ordering by |E| is preserved
    val es = Datasets.all.map(_.paperE)
    assert(es == es.sorted)
  }

  test("catalog scaling preserves the layer ratio ordering") {
    for (s <- Datasets.all) {
      assert(s.cfg.nE >= 500)
      assert(s.cfg.nU >= 12 && s.cfg.nL >= 12)
      assert(s.cfg.spanDays >= 30)
    }
    // ER/LF keep their tiny-upper-layer character
    val lf = Datasets.byKey("LF")
    assert(lf.cfg.nU < lf.cfg.nL / 10)
  }

  test("byKey rejects unknown datasets") {
    intercept[NoSuchElementException](Datasets.byKey("nope"))
  }

  test("default delta is 40 days in seconds") {
    assert(Datasets.DefaultDeltaSeconds == 40L * 86400L)
  }

  test("days convert to seconds exactly, or are rejected with the days named") {
    assert(Datasets.deltaSecondsOfDays(40) == Datasets.DefaultDeltaSeconds)
    assert(Datasets.deltaSecondsOfDays(0) == 0L)
    // 213,503,982,334,602 days once wrapped to 61,184 s without an error.
    for (days <- Seq(213503982334602L, Long.MaxValue, Long.MinValue, -3L, -1L)) {
      val e = intercept[IllegalArgumentException](Datasets.deltaSecondsOfDays(days))
      assert(e.getMessage.contains(s"$days days"), e.getMessage)
    }
  }

  test("LocalGraph dense build round-trips ids, layers, degrees") {
    val edges = SynthBipartite.generate(cfg.copy(nE = 300))
    val g = LocalGraph.fromEdges(edges)
    assert(g.numEdges == 300)
    val degByU = edges.groupBy(_.u).view.mapValues(_.size).toMap
    for (v <- 0 until g.n if g.layer(v) == 0)
      assert(g.degree(v) == degByU(g.origId(v)))
  }

  test("LocalGraph priorities are a strict total order aligned with degree") {
    val edges = SynthBipartite.generate(cfg.copy(nE = 500))
    val g = LocalGraph.fromEdges(edges)
    assert((0 until g.n).map(g.pri).toSet.size == g.n)
    for (a <- 0 until g.n; b <- 0 until g.n if g.degree(a) > g.degree(b))
      assert(g.pri(a) > g.pri(b))
    // The id is the rank in (degree, layer, origId), whatever the edge order.
    val key = (v: Int) => (g.degree(v), g.layer(v).toInt, g.origId(v))
    for (v <- 1 until g.n) assert(Ordering[(Int, Int, Long)].lt(key(v - 1), key(v)))
    val h = LocalGraph.fromEdges(new scala.util.Random(5).shuffle(edges))
    assert(h.n == g.n && h.layer.toSeq == g.layer.toSeq && h.origId.toSeq == g.origId.toSeq)
    assert((0 until g.n).forall(v => h.degree(v) == g.degree(v)))
  }
}
