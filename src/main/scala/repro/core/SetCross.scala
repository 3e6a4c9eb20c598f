package repro.core

import scala.collection.mutable.ArrayBuffer
import repro.util.Sat

/** A flat list of normalized wedges (`ts < ta`) sorted by wedge priority:
  * `ts` descending, then `ta` ascending (Definition 6 — lower priority, i.e.
  * larger `ts`, is processed first). `mid` carries the middle-vertex for
  * enumeration; counting ignores it.
  */
final class WList(val ts: Array[Long], val ta: Array[Long], val mid: Array[Long]) {
  @inline def size: Int = ts.length
}

object WList {
  val empty = new WList(Array.emptyLongArray, Array.emptyLongArray, Array.emptyLongArray)

  /** Build a priority-sorted list from unsorted normalized wedges. */
  def sorted(buf: ArrayBuffer[(Long, Long)], mid: Long): WList = {
    val arr = buf.toArray
    java.util.Arrays.sort(arr, (p: (Long, Long), q: (Long, Long)) => {
      if (p._1 != q._1) java.lang.Long.compare(q._1, p._1)
      else java.lang.Long.compare(p._2, q._2)
    })
    new WList(arr.map(_._1), arr.map(_._2), Array.fill(arr.length)(mid))
  }

  /** Mergesort-style merge of two priority-sorted lists (Merge() of Alg. 3). */
  def merge(x: WList, y: WList): WList = {
    if (x.size == 0) return y
    if (y.size == 0) return x
    val n = x.size + y.size
    val ts = new Array[Long](n); val ta = new Array[Long](n); val mid = new Array[Long](n)
    var i = 0; var j = 0; var k = 0
    while (i < x.size && j < y.size) {
      val takeX =
        if (x.ts(i) != y.ts(j)) x.ts(i) > y.ts(j)
        else x.ta(i) <= y.ta(j)
      if (takeX) { ts(k) = x.ts(i); ta(k) = x.ta(i); mid(k) = x.mid(i); i += 1 }
      else { ts(k) = y.ts(j); ta(k) = y.ta(j); mid(k) = y.mid(j); j += 1 }
      k += 1
    }
    while (i < x.size) { ts(k) = x.ts(i); ta(k) = x.ta(i); mid(k) = x.mid(i); i += 1; k += 1 }
    while (j < y.size) { ts(k) = y.ts(j); ta(k) = y.ta(j); mid(k) = y.mid(j); j += 1; k += 1 }
    new WList(ts, ta, mid)
  }
}

/** A wedge set `S_v = (A, D)` (Definition 5): forward wedges in `a`,
  * backward wedges (timestamps swapped on insert) in `d`.
  */
final class Side(val a: WList, val d: WList) {
  def size: Int = a.size + d.size
}

/** The Combine()/Recur()/SetCross() framework of Algorithms 2–6.
  *
  * `recur*` recursively merges the per-middle-vertex wedge sets bottom-up
  * (Mergesort-style); each `cross*` pairs the wedges of two merged halves —
  * which by construction have disjoint middle-vertex populations, so only
  * valid butterfly wedge pairs are ever examined, and each exactly once.
  */
object SetCross {

  /** Sink for enumeration: receives one butterfly per call, as its two
    * wedges `(mid, ts, ta)` plus the pre-computed type. Each wedge arrives
    * as stored, normalized to `ts < ta`, so its two legs may come in either
    * order relative to the raw edges.
    */
  trait EnumSink {
    def emit(btype: Int, mid1: Long, s1: Long, a1: Long, mid2: Long, s2: Long, a2: Long): Unit
  }

  /** Recursively combine `sides` and add butterfly counts into `counts`.
    *
    * @param mkIndex index factory: HPIndex for TBC+, TreeIndex for TBC++
    */
  def recurCount(
      sides: Array[Side], layer: Int, delta: Long,
      counts: Array[Long], mkIndex: () => WedgeIndex): Unit =
    recur(sides, (l, r) => cross(l, r, layer, delta, counts, mkIndex, null))

  /** Enumeration flavour of [[recurCount]] — TBE+ (Algorithm 5). */
  def recurEnum(sides: Array[Side], layer: Int, delta: Long, sink: EnumSink): Unit =
    recur(sides, (l, r) => cross(l, r, layer, delta, null, () => new HPIndex(withMids = true), sink))

  /** Mergesort-style bottom-up recursion shared by both flavours:
    * `crossPair` pairs two merged halves before they are merged themselves;
    * nothing reads the root's merge, so it is skipped.
    */
  private def recur(sides: Array[Side], crossPair: (Side, Side) => Unit): Unit = {
    def go(lo: Int, hi: Int): Side =
      if (hi - lo == 1) sides(lo)
      else {
        val mid = (lo + hi) >>> 1
        val l = go(lo, mid)
        val r = go(mid, hi)
        crossPair(l, r)
        if (hi - lo == sides.length) null else new Side(WList.merge(l.a, r.a), WList.merge(l.d, r.d))
      }
    if (sides.length > 1) go(0, sides.length)
  }

  /** SetCross() (Algorithm 3 lines 8–28): pair every wedge of side `si`
    * with every compatible wedge of side `sj`, processing all four subsets
    * jointly in `ts`-descending rounds so each index only ever holds wedges
    * with strictly larger start times than the current one.
    *
    * The lists are `si.a, si.d, sj.a, sj.d`, so list `k`'s partners sit on
    * the other side: `k ^ 2` points the same way in time, `k ^ 3` the other
    * way. When `sink` is null, counts are accumulated into `counts`;
    * otherwise instances are emitted (and `counts` may be null).
    */
  private def cross(
      si: Side, sj: Side, layer: Int, delta: Long,
      counts: Array[Long], mkIndex: () => WedgeIndex, sink: EnumSink): Unit = {
    if (si.size == 0 || sj.size == 0) return
    val lists = Array(si.a, si.d, sj.a, sj.d)
    val idx = Array.fill(4)(mkIndex())
    val ptr = new Array[Int](4)
    val pre = new Array[Int](4)
    // Base-type counts (layer 0) of same- and different-direction pairs.
    val same = new Array[Long](3)
    val diff = new Array[Long](3)

    var live = true
    while (live) {
      // maxn: largest unprocessed start time across the four subsets. An
      // explicit flag marks that one exists: `maxn` may be Long.MinValue.
      var maxn = Long.MinValue
      live = false
      var k = 0
      while (k < 4) {
        if (ptr(k) < lists(k).size && (!live || lists(k).ts(ptr(k)) > maxn)) {
          maxn = lists(k).ts(ptr(k))
          live = true
        }
        k += 1
      }
      if (live) {
        // Lemma 2: wedges whose end time exceeds maxn + delta can never
        // again satisfy the duration constraint.
        val bound = Sat.add(maxn, delta)
        k = 0
        while (k < 4) { idx(k).deleteAbove(bound); pre(k) = ptr(k); k += 1 }
        // Query every wedge whose start time equals maxn, *before* any of
        // them is inserted — equal start times never co-occur in a butterfly.
        k = 0
        while (k < 4) {
          val lst = lists(k)
          var p = ptr(k)
          while (p < lst.size && lst.ts(p) == maxn) {
            val curTa = lst.ta(p)
            if (sink == null) {
              idx(k ^ 2).countCases(curTa, same)
              idx(k ^ 3).countCases(curTa, diff)
            } else {
              val curMid = lst.mid(p)
              idx(k ^ 2).visitCases(curTa) { (c, ots, ota, omid) =>
                sink.emit(c ^ layer, curMid, maxn, curTa, omid, ots, ota)
              }
              idx(k ^ 3).visitCases(curTa) { (c, ots, ota, omid) =>
                sink.emit((3 + c) ^ layer, curMid, maxn, curTa, omid, ots, ota)
              }
            }
            p += 1
          }
          ptr(k) = p
          k += 1
        }
        // Insert this round's wedges (Insert() keeps each HP array ordered).
        k = 0
        while (k < 4) {
          val lst = lists(k)
          var p = pre(k)
          while (p < ptr(k)) { idx(k).insert(lst.ts(p), lst.ta(p), lst.mid(p)); p += 1 }
          k += 1
        }
      }
    }
    if (sink == null) {
      var c = 0
      while (c < 3) { counts(c ^ layer) += same(c); counts((3 + c) ^ layer) += diff(c); c += 1 }
    }
  }
}
