package repro.stream

import org.scalacheck.Gen
import org.scalacheck.rng.Seed

import repro.{SparkSpec, TestUtil}
import repro.core.{LocalAlgos, Variant}
import repro.graph.{LocalGraph, TemporalEdge}
import repro.sparkdist.SparkButterfly

/** Lemma 8 as a large-graph oracle. Inserting a whole time-sorted graph
  * into an empty `StreamGraph` charges every butterfly to its one latest
  * edge, so STBC+'s insertion count must equal the static count. Unlike
  * `BruteForce`, this reaches graphs of thousands of edges.
  */
class Lemma8OracleSpec extends SparkSpec {

  /** 2,000–5,000 edges with a δ: a few hub uppers take a third of the
    * random edges, runs of edges share one timestamp, ids lie anywhere in
    * `[-2^62, 2^62)` and timestamps sit at either end of the `Long` range.
    */
  private val genGraph: Gen[(Seq[TemporalEdge], Long)] = for {
    n <- Gen.choose(2000, 4600)
    nU <- Gen.choose(30, 300)
    nL <- Gen.choose(30, 300)
    hubs <- Gen.choose(1, 6)
    uBase <- Gen.choose(-(1L << 62), (1L << 62) - nU)
    vBase <- Gen.choose(-(1L << 62), (1L << 62) - nL)
    span <- Gen.oneOf(5000L, 1000000L)
    tBase <- Gen.oneOf(0L, Long.MinValue, Long.MaxValue - span)
    delta <- Gen.oneOf(span / 200, span / 50, span / 10)
    edge = (time: Gen[Long]) => for {
      hub <- Gen.frequency(1 -> true, 2 -> false)
      u <- Gen.choose(0, if (hub) hubs - 1 else nU - 1)
      v <- Gen.choose(0, nL - 1)
      t <- time
    } yield TemporalEdge(uBase + u, vBase + v, tBase + t)
    random <- Gen.listOfN(n, edge(Gen.choose(0L, span)))
    runs <- Gen.listOfN(10, for {
      t <- Gen.choose(0L, span)
      len <- Gen.choose(5, 40)
      run <- Gen.listOfN(len, edge(Gen.const(t)))
    } yield run)
  } yield (random ++ runs.flatten, delta)

  private def draw(seed: Long) = genGraph.pureApply(Gen.Parameters.default, Seed(seed))

  private val graphs = (1 to 4).map(i => draw(i.toLong))

  /** Graph 4: seed 5's draw with each layer's ids moved, in order, to
    * alternate ends of the whole `Long` range, which only Spark limits.
    */
  private val wide = {
    val (edges, delta) = draw(5)
    def toEnds(ids: Seq[Long]): Map[Long, Long] = ids.distinct.sorted.zipWithIndex.map {
      case (id, i) => id -> (if (i % 2 == 0) Long.MinValue + i / 2 else Long.MaxValue - i / 2)
    }.toMap
    val us = toEnds(edges.map(_.u))
    val vs = toEnds(edges.map(_.v))
    (edges.map(e => TemporalEdge(us(e.u), vs(e.v), e.t)), delta)
  }

  private def lemma8(edges: Seq[TemporalEdge], delta: Long): Array[Long] =
    STBCPlus.insertBatch(new StreamGraph, edges.sortBy(_.t), delta)

  for (((edges, delta), i) <- (graphs :+ wide).zipWithIndex)
    test(s"static counters equal STBC+ inserting the whole sorted graph (graph $i)") {
      assert(edges.length >= 2000 && edges.length <= 5000)
      val want = lemma8(edges, delta)
      assert(want.sum > 0, s"graph $i has no butterfly to compare")
      val g = LocalGraph.fromEdges(edges)
      TestUtil.assertCountsEqual(want, LocalAlgos.tbcPlus(g, delta), s"graph $i TBC+")
      TestUtil.assertCountsEqual(want, LocalAlgos.tbcPlusPlus(g, delta), s"graph $i TBC++")
      assert(LocalAlgos.tbePlus(g, delta, collect = false)._1 == want.sum, s"graph $i TBE+")
    }

  test("Spark count equals STBC+ inserting the whole sorted graph (graph 0)") {
    val (edges, delta) = graphs(0)
    val got = SparkButterfly.count(SparkButterfly.edgesToDF(spark, edges), delta, Variant.PlusPlus)
    TestUtil.assertCountsEqual(lemma8(edges, delta), got, "graph 0 Spark")
  }
}
