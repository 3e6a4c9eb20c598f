package repro.core

import org.scalacheck.{Gen, Prop, Properties}

import repro.graph.{LocalGraph, TemporalEdge}
import repro.stream.SlidingWindow

/** ScalaCheck properties tying the optimized algorithms to the brute-force
  * reference over arbitrary generated graphs (run by sbt's native
  * ScalaCheck framework alongside the scalatest suites).
  */
object AlgoProps extends Properties("TemporalButterfly") {

  val genEdges: Gen[List[TemporalEdge]] = for {
    nU <- Gen.choose(2, 6)
    nL <- Gen.choose(2, 6)
    n  <- Gen.choose(0, 90)
    tMax <- Gen.oneOf(6L, 40L, 400L)
    // Bases put timestamps at both ends of the Long range and ids at the
    // ends of the [-2^62, 2^62) range that the Spark path folds.
    tBase <- Gen.oneOf(0L, -200L, Long.MinValue, Long.MaxValue - tMax)
    idBase <- Gen.oneOf(0L, -3L, -(1L << 62), (1L << 62) - 10)
    // A hub-dominated draw adds hubDegree·nL edges from upper 0 to random
    // lowers: it reaches most lowers at several times, so the groups of one
    // start vertex hold many live start times at once.
    hubDegree <- Gen.frequency(2 -> Gen.const(0), 1 -> Gen.choose(2, 8))
    hub <- Gen.listOfN(hubDegree * nL, for {
      v <- Gen.choose(0, nL - 1)
      t <- Gen.choose(0L, tMax)
    } yield TemporalEdge(idBase, idBase + v, tBase + t))
    edges <- Gen.listOfN(n, for {
      u <- Gen.choose(0, nU - 1)
      v <- Gen.choose(0, nL - 1)
      t <- Gen.choose(0L, tMax)
    } yield TemporalEdge(idBase + u, idBase + v, tBase + t))
    // One draw in three adds a run of edges that all share one timestamp,
    // whatever tMax, so equal stamps meet inside wedges and wedge pairs.
    runLength <- Gen.frequency(2 -> Gen.const(0), 1 -> Gen.choose(2, 12))
    runT <- Gen.choose(0L, tMax)
    run <- Gen.listOfN(runLength, for {
      u <- Gen.choose(0, nU - 1)
      v <- Gen.choose(0, nL - 1)
    } yield TemporalEdge(idBase + u, idBase + v, tBase + runT))
  } yield hub ++ edges ++ run

  val genDelta: Gen[Long] = Gen.oneOf(0L, 1L, 5L, 25L, 100L, 100000L, Long.MaxValue)

  property("TBC == brute force") = Prop.forAll(genEdges, genDelta) { (edges, delta) =>
    val g = LocalGraph.fromEdges(edges)
    LocalAlgos.tbc(g, delta).sameElements(BruteForce.countByType(edges, delta))
  }

  property("TBC+ == brute force") = Prop.forAll(genEdges, genDelta) { (edges, delta) =>
    val g = LocalGraph.fromEdges(edges)
    LocalAlgos.tbcPlus(g, delta).sameElements(BruteForce.countByType(edges, delta))
  }

  property("TBC++ == brute force") = Prop.forAll(genEdges, genDelta) { (edges, delta) =>
    val g = LocalGraph.fromEdges(edges)
    LocalAlgos.tbcPlusPlus(g, delta).sameElements(BruteForce.countByType(edges, delta))
  }

  property("TBE multiset == brute force multiset") =
    Prop.forAll(genEdges, genDelta) { (edges, delta) =>
      val g = LocalGraph.fromEdges(edges)
      val got = LocalAlgos.tbe(g, delta)._2.groupBy(identity).view.mapValues(_.size).toMap
      val want = BruteForce.enumerate(edges, delta).groupBy(identity).view.mapValues(_.size).toMap
      got == want
    }

  property("TBE+ multiset == brute force multiset") =
    Prop.forAll(genEdges, genDelta) { (edges, delta) =>
      val g = LocalGraph.fromEdges(edges)
      val got = LocalAlgos.tbePlus(g, delta)._2.groupBy(identity).view.mapValues(_.size).toMap
      val want = BruteForce.enumerate(edges, delta).groupBy(identity).view.mapValues(_.size).toMap
      got == want
    }

  property("enumeration total == counting total") =
    Prop.forAll(genEdges, genDelta) { (edges, delta) =>
      val g = LocalGraph.fromEdges(edges)
      LocalAlgos.tbePlus(g, delta, collect = false)._1 == LocalAlgos.tbcPlusPlus(g, delta).sum
    }

  property("edge order does not change counts") =
    Prop.forAll(genEdges, genDelta) { (edges, delta) =>
      val a = LocalAlgos.tbcPlusPlus(LocalGraph.fromEdges(edges), delta)
      val b = LocalAlgos.tbcPlusPlus(LocalGraph.fromEdges(edges.reverse), delta)
      a.sameElements(b)
    }

  property("sliding window final counts == brute force on the last window") =
    Prop.forAll(genEdges, genDelta, Gen.choose(1, 40), Gen.choose(1, 40)) { (edges, delta, window, s) =>
      val stream = edges.sortBy(_.t).toIndexedSeq
      Seq(0, 1, 3).forall { threads =>
        var last: SlidingWindow.Step = null
        val fin = SlidingWindow.run(stream, window, math.min(s, window), delta, threads,
          onStep = step => last = step)
        fin.sameElements(BruteForce.countByType(stream.slice(last.windowStart, last.windowEnd), delta))
      }
    }
}
