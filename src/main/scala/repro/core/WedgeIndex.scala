package repro.core

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

/** The hashmap `HP` of TBC+ (Algorithm 3/4, Table 1), without a hash:
  * `SetCross` inserts in descending rounds of `ts`, `ta` ascending within a
  * round, so a new key is always the smallest (an out-of-order insert
  * throws). `keys(0 until n)` holds the live start times descending and
  * `tas(i)`/`mids(i)` the wedges of `keys(i)` ascending by `ta`, so case
  * c13/c15 take one rank query per key and deletions pop from the back.
  *
  * Deliberately keeps the paper's cost profile: `deleteAbove` and
  * `countCases` traverse every live key — the per-key `alpha log(n/alpha)`
  * term in TBC+'s complexity and exactly the weakness TBC++ removes.
  */
final class HPIndex(withMids: Boolean) extends WedgeIndex {

  private var keys = new Array[Long](8)
  private var tas = new Array[LongBuf](8)
  private var mids = new Array[LongBuf](8)
  private var n = 0

  override def insert(ts: Long, ta: Long, mid: Long): Unit = {
    if (n == 0 || ts < keys(n - 1)) {
      if (n == keys.length) {
        keys = keys.padTo(2 * n, 0L); tas = tas.padTo(2 * n, null); mids = mids.padTo(2 * n, null)
      }
      if (tas(n) == null) { tas(n) = new LongBuf; if (withMids) mids(n) = new LongBuf } // else reuse
      keys(n) = ts; n += 1
    } else require(ts == keys(n - 1), s"HPIndex: start time $ts inserted above start time ${keys(n - 1)}")
    tas(n - 1) += ta; if (withMids) mids(n - 1) += mid
  }

  override def deleteAbove(bound: Long): Unit = {
    var live = 0; var i = 0
    while (i < n) {
      val b = tas(i); val m = mids(i)
      while (b.nonEmpty && b.last > bound) { b.pop(); if (withMids) m.pop() }
      if (b.nonEmpty) { // compact: swap the bucket down over the emptied ones
        keys(live) = keys(i); tas(i) = tas(live); mids(i) = mids(live); tas(live) = b; mids(live) = m
        live += 1
      }
      i += 1
    }
    n = live
  }

  override def countCases(curTa: Long, out: Array[Long]): Unit = {
    var i = 0
    while (i < n) {
      val ts = keys(i); val b = tas(i)
      if (ts > curTa) out(0) += b.length
      else if (ts < curTa) {
        out(1) += b.length - b.rank(curTa, inclusive = true)  // ta > curTa
        out(2) += b.rank(curTa, inclusive = false)            // ta < curTa
      }
      i += 1
    }
  }

  override def visitCases(curTa: Long)(f: (Int, Long, Long, Long) => Unit): Unit = {
    var k = 0
    while (k < n) {
      val ts = keys(k); val b = tas(k); val m = mids(k); var i = 0
      if (ts > curTa) while (i < b.length) { f(0, ts, b(i), m(i)); i += 1 }
      else if (ts < curTa) {
        // TBE+'s range traversal (Algorithm 5): c13 from the back, c15 from the front.
        i = b.length - 1
        while (i >= 0 && b(i) > curTa) { f(1, ts, b(i), m(i)); i -= 1 }
        i = 0
        while (i < b.length && b(i) < curTa) { f(2, ts, b(i), m(i)); i += 1 }
      }
      k += 1
    }
  }
}

/** The twin balanced trees `TA`/`TS` of TBC++ (§ 4.4, Algorithm 6).
  *
  * `taTree` orders wedges by end time and carries each one's start time,
  * so synchronized deletion by maximum `ta` (Lemma 2) pops the matching
  * `ts` as well. `tsTree` orders them by start time; it stores `~ts`, so
  * the newest (smallest) start time is its largest key and goes in last.
  * Every operation is O(log n), removing the per-distinct-`ts` traversal
  * that makes HP degrade on high-degree vertices (Figure 8's extreme case).
  *
  * Query resolution (Lemmas 4–7):
  *   - c11 = TS.count(> curTa)
  *   - c13 = TA.count(> curTa) − TS.count(>= curTa)
  *   - c15 = TA.count(< curTa)
  */
final class TreeIndex extends WedgeIndex {

  private val taTree = new OrderStatTree(withValues = true)
  private val tsTree = new OrderStatTree // of ~ts: ts > x <=> ~ts < ~x

  override def insert(ts: Long, ta: Long, mid: Long): Unit = {
    taTree.insert(ta, ts)
    tsTree.insert(~ts)
  }

  override def deleteAbove(bound: Long): Unit =
    while (taTree.nonEmpty && taTree.maxKey > bound) tsTree.erase(~taTree.popMax())

  override def countCases(curTa: Long, out: Array[Long]): Unit = if (taTree.nonEmpty) {
    out(0) += tsTree.countLess(~curTa)
    out(1) += taTree.countGreater(curTa) - tsTree.countLessOrEqual(~curTa)
    out(2) += taTree.countLess(curTa)
  }

  override def visitCases(curTa: Long)(f: (Int, Long, Long, Long) => Unit): Unit =
    throw new UnsupportedOperationException(
      "TBC++ is counting-only (the paper defines no TBE++); use HPIndex for enumeration")
}
