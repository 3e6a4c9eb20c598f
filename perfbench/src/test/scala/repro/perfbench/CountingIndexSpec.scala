package repro.perfbench

import scala.collection.mutable.ArrayBuffer

import org.scalatest.funsuite.AnyFunSuite

import repro.core.{LocalCombine, SetCross, TreeIndex, WedgeIndex}

class CountingIndexSpec extends AnyFunSuite {

  /** Answers a query only when `curTa` is even. */
  private final class EvenOnly extends WedgeIndex {
    def insert(ts: Long, ta: Long, mid: Long): Unit = ()
    def deleteAbove(bound: Long): Unit = ()
    def countCases(curTa: Long, out: Array[Long]): Unit = if (curTa % 2 == 0) out(1) += 1
    def visitCases(curTa: Long)(f: (Int, Long, Long, Long) => Unit): Unit = ()
  }

  test("counts calls and the share of queries that add a count") {
    val c = new IndexCounters
    val idx = c.factory(() => new EvenOnly)()
    idx.insert(1, 2, 0); idx.insert(3, 4, 0)
    idx.deleteAbove(10)
    val out = Array(5L, 0L, 0L) // a query that adds nothing leaves a non-zero total alone
    Seq(1L, 2L, 3L, 4L).foreach(t => idx.countCases(t, out))
    assert(c.created == 1)
    assert(c.inserts == 2 && c.deleteCalls == 1 && c.countQueries == 4 && c.usefulQueries == 2)
    assert(c.usefulQueryRatio == 0.5)
    assert(out.toSeq == Seq(5L, 2L, 0L))
    assert(new IndexCounters().usefulQueryRatio == 0.0)
  }

  test("wrapping the index leaves SetCross's counts unchanged") {
    // One (start, end) group: raw wedges (mid, start-leg time, end-leg time).
    val ws = ArrayBuffer[(Long, Long, Long)](
      (1L, 10L, 20L), (2L, 30L, 40L), (3L, 15L, 35L), (1L, 50L, 45L), (2L, 12L, 18L), (4L, 60L, 25L))
    val delta = 100L
    val sides = LocalCombine.buildSides(ws, delta)
    val plain = new Array[Long](6)
    SetCross.recurCount(sides, 0, delta, plain, () => new TreeIndex)
    val c = new IndexCounters
    val wrapped = new Array[Long](6)
    SetCross.recurCount(sides, 0, delta, wrapped, c.factory(() => new TreeIndex))
    assert(plain.sum > 0)
    assert(wrapped.toSeq == plain.toSeq)
    assert(c.created % 4 == 0 && c.created / 4 == sides.length - 1)
    // Every queried wedge asks two partner indexes; every round trims all four.
    assert(c.inserts > 0 && c.countQueries % 2 == 0 && c.deleteCalls % 4 == 0)
  }
}
