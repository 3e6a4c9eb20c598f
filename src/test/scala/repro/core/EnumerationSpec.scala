package repro.core

import org.scalatest.funsuite.AnyFunSuite

import repro.TestUtil
import repro.graph.{LocalGraph, TemporalEdge}

/** TBE and TBE+ must produce the identical instance multiset as the
  * brute-force enumerator, and agree with the counting algorithms.
  */
class EnumerationSpec extends AnyFunSuite {

  private def multiset(xs: Iterable[Instance]): Map[Instance, Int] =
    xs.groupBy(identity).view.mapValues(_.size).toMap

  private def checkEnum(edges: Seq[TemporalEdge], delta: Long, label: String): Unit = {
    val expected = multiset(BruteForce.enumerate(edges, delta))
    val g = LocalGraph.fromEdges(edges)
    val (nBase, base) = LocalAlgos.tbe(g, delta)
    val (nPlus, plus) = LocalAlgos.tbePlus(g, delta)
    assert(multiset(base) == expected, s"$label TBE multiset")
    assert(multiset(plus) == expected, s"$label TBE+ multiset")
    assert(nBase == expected.values.sum && nPlus == expected.values.sum, s"$label totals")
  }

  test("empty graph enumerates nothing") { checkEnum(Seq.empty, 50, "empty") }

  for ((name, stamps, expected) <- Seq(
      ("T0", (1L, 2L, 3L, 4L), 0), ("T1", (1L, 3L, 2L, 4L), 1),
      ("T2", (1L, 4L, 2L, 3L), 2), ("T3", (1L, 2L, 4L, 3L), 3),
      ("T4", (1L, 3L, 4L, 2L), 4), ("T5", (1L, 4L, 3L, 2L), 5)))
    test(s"single butterfly instance of $name carries type, vertices and stamps") {
      val edges = TestUtil.singleButterfly(stamps._1, stamps._2, stamps._3, stamps._4)
      val g = LocalGraph.fromEdges(edges)
      val (_, inst) = LocalAlgos.tbePlus(g, 100)
      assert(inst.length == 1)
      val i = inst.head
      assert(i.btype == expected)
      assert(i.u0 == 0 && i.u1 == 1 && i.l0 == 0 && i.l1 == 1)
      assert(Seq(i.t0, i.t1, i.t2, i.t3) == Seq(1L, 2L, 3L, 4L))
    }

  for (seed <- 1 to 8)
    test(s"random graph enumeration parity (seed $seed)") {
      checkEnum(TestUtil.randomEdges(seed, 5, 5, 110, 60), 30, s"enum-$seed")
    }

  for (seed <- 9 to 12)
    test(s"timestamp-collision enumeration parity (seed $seed)") {
      checkEnum(TestUtil.randomEdges(seed, 4, 4, 90, 10), 10, s"enum-col-$seed")
    }

  for (seed <- 1 to 6)
    test(s"enumeration totals equal counting totals (seed $seed)") {
      val edges = TestUtil.randomEdges(seed * 31, 6, 7, 150, 120)
      val g = LocalGraph.fromEdges(edges)
      val counts = LocalAlgos.tbcPlusPlus(g, 60)
      val (total, inst) = LocalAlgos.tbePlus(g, 60)
      assert(total == counts.sum)
      val byType = inst.groupBy(_.btype).view.mapValues(_.size.toLong).toMap
      for (t <- 0 until 6)
        assert(byType.getOrElse(t, 0L) == counts(t), s"type $t")
    }

  test("enumeration without collection still counts (bench protocol)") {
    val edges = TestUtil.randomEdges(77, 6, 6, 150, 100)
    val g = LocalGraph.fromEdges(edges)
    val (collected, inst) = LocalAlgos.tbePlus(g, 50, collect = true)
    val (uncollected, none) = LocalAlgos.tbePlus(g, 50, collect = false)
    assert(collected == uncollected && none.isEmpty && inst.length.toLong == collected)
  }

  test("collected TBE and TBE+ instances come sorted field by field, the same on every call") {
    val g = LocalGraph.fromEdges(TestUtil.randomEdges(5, 7, 7, 200, 150))
    for ((name, run) <- Seq[(String, () => Seq[Instance])](
        "TBE" -> (() => LocalAlgos.tbe(g, 60)._2.toSeq),
        "TBE+" -> (() => LocalAlgos.tbePlus(g, 60)._2.toSeq))) {
      val first = run()
      val keys = first.map(i => Instance.unapply(i).get)
      assert(first.length > 100, name)
      assert(keys == keys.sorted, s"$name order")
      assert(run() == first, s"$name second call")
    }
  }
}
