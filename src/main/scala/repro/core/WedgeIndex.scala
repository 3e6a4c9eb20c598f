package repro.core

import scala.collection.mutable
import repro.util.{LongBuf, OrderStatTree}

/** Index over already-processed wedges inside a SetCross() pass.
  *
  * All stored wedges have a start time strictly greater than the start time
  * of any wedge that will query the index (wedges are processed in
  * wedge-priority-increasing order, i.e. `ts` descending — § 4.2). A query
  * therefore only needs the querying wedge's end time `curTa` to resolve the
  * three coverage cases of Figure 4:
  *
  *   - case c11 (non-overlap): stored `ts  >  curTa`
  *   - case c13 (intersect):   stored `ts  <  curTa < ta`
  *   - case c15 (cover):       stored `ta  <  curTa`
  *
  * Equalities are excluded everywhere — equal timestamps can never appear in
  * a temporal butterfly.
  */
trait WedgeIndex {

  /** Insert a processed wedge (normalized: `ts < ta`). `mid` is carried for
    * enumeration and ignored by counting-only indexes.
    */
  def insert(ts: Long, ta: Long, mid: Long): Unit

  /** Drop every stored wedge with `ta > bound` (Lemma 2: once the duration
    * constraint fails against the current round's minimum start time, the
    * wedge can never participate again — Lemma 3).
    */
  def deleteAbove(bound: Long): Unit

  /** Add the number of stored wedges matching each coverage case versus a
    * querying wedge with end time `curTa` into `out(0..2)`.
    */
  def countCases(curTa: Long, out: Array[Long]): Unit

  /** Visit stored wedges matching each coverage case (for enumeration):
    * `f(caseIdx, ts, ta, mid)`.
    */
  def visitCases(curTa: Long)(f: (Int, Long, Long, Long) => Unit): Unit
}

/** The hashmap `HP` of TBC+ (Algorithm 3/4, Table 1): one ordered array of
  * end times per start time. Arrays stay sorted ascending by construction
  * (wedges with equal `ts` arrive in `ta`-ascending order and deletions pop
  * from the back), so case c13/c15 resolve with one rank query per key.
  *
  * Deliberately keeps the paper's cost profile: `deleteAbove` and
  * `countCases` traverse every live key — the per-key `alpha log(n/alpha)`
  * term in TBC+'s complexity and exactly the weakness TBC++ removes.
  */
final class HPIndex(withMids: Boolean) extends WedgeIndex {

  private final class Bucket {
    val ta = new LongBuf
    val mid: LongBuf = if (withMids) new LongBuf else null
  }

  private val map = mutable.HashMap.empty[Long, Bucket]

  override def insert(ts: Long, ta: Long, mid: Long): Unit = {
    val b = map.getOrElseUpdate(ts, new Bucket)
    b.ta += ta
    if (withMids) b.mid += mid
  }

  override def deleteAbove(bound: Long): Unit =
    map.filterInPlace { (_, b) =>
      while (b.ta.nonEmpty && b.ta.last > bound) {
        b.ta.pop()
        if (withMids) b.mid.pop()
      }
      b.ta.nonEmpty
    }

  override def countCases(curTa: Long, out: Array[Long]): Unit =
    map.foreach { case (ts, b) =>
      if (ts > curTa) out(0) += b.ta.length
      else if (ts < curTa) {
        out(1) += b.ta.length - b.ta.rank(curTa, inclusive = true)  // ta > curTa
        out(2) += b.ta.rank(curTa, inclusive = false)               // ta < curTa
      }
    }

  override def visitCases(curTa: Long)(f: (Int, Long, Long, Long) => Unit): Unit =
    map.foreach { case (ts, b) =>
      if (ts > curTa) {
        var i = 0
        while (i < b.ta.length) { f(0, ts, b.ta(i), b.mid(i)); i += 1 }
      } else if (ts < curTa) {
        // Range traversal as in TBE+ (Algorithm 5): walk from the back while
        // ta > curTa (intersect), from the front while ta < curTa (cover).
        var i = b.ta.length - 1
        while (i >= 0 && b.ta(i) > curTa) { f(1, ts, b.ta(i), b.mid(i)); i -= 1 }
        i = 0
        while (i < b.ta.length && b.ta(i) < curTa) { f(2, ts, b.ta(i), b.mid(i)); i += 1 }
      }
    }
}

/** The twin balanced trees `TA`/`TS` of TBC++ (§ 4.4, Algorithm 6).
  *
  * `taTree` orders wedges by end time, `tsTree` by start time; `byTa` pairs
  * the two so synchronized deletion by maximum `ta` (Lemma 2) can erase the
  * matching `ts` as well. Every operation is O(log n), removing the
  * per-distinct-`ts` traversal that makes HP degrade on high-degree vertices
  * (Figure 8's extreme case).
  *
  * Query resolution (Lemmas 4–7):
  *   - c11 = TS.count(> curTa)
  *   - c13 = TA.count(> curTa) − TS.count(>= curTa)
  *   - c15 = TA.count(< curTa)
  */
final class TreeIndex extends WedgeIndex {

  private val taTree = new OrderStatTree
  private val tsTree = new OrderStatTree
  private val byTa = mutable.HashMap.empty[Long, LongBuf]

  override def insert(ts: Long, ta: Long, mid: Long): Unit = {
    taTree.insert(ta)
    tsTree.insert(ts)
    byTa.getOrElseUpdate(ta, new LongBuf) += ts
  }

  override def deleteAbove(bound: Long): Unit =
    while (taTree.nonEmpty && taTree.maxKey > bound) {
      val ta = taTree.maxKey
      val stack = byTa(ta)
      val ts = stack.pop()
      if (stack.isEmpty) byTa.remove(ta)
      taTree.erase(ta)
      tsTree.erase(ts)
    }

  override def countCases(curTa: Long, out: Array[Long]): Unit = {
    out(0) += tsTree.countGreater(curTa)
    out(1) += taTree.countGreater(curTa) - tsTree.countGreaterOrEqual(curTa)
    out(2) += taTree.countLess(curTa)
  }

  override def visitCases(curTa: Long)(f: (Int, Long, Long, Long) => Unit): Unit =
    throw new UnsupportedOperationException(
      "TBC++ is counting-only (the paper defines no TBE++); use HPIndex for enumeration")
}
