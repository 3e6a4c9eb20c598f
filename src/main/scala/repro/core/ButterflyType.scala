package repro.core

import repro.util.Sat

/** Temporal-butterfly type arithmetic (Figure 1, Figure 4, § 4.1).
  *
  * A temporal butterfly decomposes into two temporal wedges that share their
  * start- and end-vertex but differ in the middle-vertex. Its type is fully
  * determined by three ingredients (§ 4.1):
  *
  *   1. '''direction''': whether the two wedges point the same way in time
  *      (both forward or both backward) or deviate;
  *   2. '''coverage''': how the two normalized time intervals relate —
  *      non-overlap, intersecting, or covering;
  *   3. '''layer''': which layer the start-vertex lives in. The conversion
  *      rule (Figure 6) is a single xor: types pair up as (T0,T1), (T2,T3),
  *      (T4,T5) when the butterfly is read from the other layer.
  *
  * The base index (start-vertex in U, layer = 0) is:
  * {{{
  *   same direction:      non-overlap -> T0, intersect -> T1, cover -> T2
  *   different direction: non-overlap -> T3, intersect -> T4, cover -> T5
  * }}}
  * which matches Query() in Algorithm 4 (cases c11 / c13 / c15 of Figure 4).
  */
object ButterflyType {

  val NumTypes = 6

  /** `into(i) += sign * c(i)` for each of the six types. */
  def addCounts(into: Array[Long], c: Array[Long], sign: Long = 1L): Unit = {
    var i = 0
    while (i < NumTypes) { into(i) += sign * c(i); i += 1 }
  }

  /** Coverage index for two normalized wedges: 0 non-overlap, 1 intersect,
    * 2 cover. `(isS, isA)` / `(jsS, jsA)` must be normalized (`ts < ta`) and
    * the "i" wedge is the one with the smaller start time.
    */
  @inline private def coverage(ia: Long, js: Long, ja: Long): Int =
    if (js > ia) 0 else if (ja < ia) 2 else 1

  /** Classify a butterfly from its two raw wedges, read from the layer of
    * the start-vertex (`layer`: 0 = U, 1 = L).
    *
    * `s1/a1` are the start-leg and end-leg timestamps of the first wedge,
    * `s2/a2` of the second. The four timestamps must be pairwise distinct
    * (use [[isValid]] first).
    */
  def classify(s1: Long, a1: Long, s2: Long, a2: Long, layer: Int): Int = {
    val f1 = s1 < a1
    val f2 = s2 < a2
    val ns1 = math.min(s1, a1); val na1 = math.max(s1, a1)
    val ns2 = math.min(s2, a2); val na2 = math.max(s2, a2)
    val (ia, js, ja) = if (ns1 < ns2) (na1, ns2, na2) else (na2, ns1, na1)
    val base = if (f1 == f2) coverage(ia, js, ja) else 3 + coverage(ia, js, ja)
    base ^ layer
  }

  /** IsTB() of the baseline (§ 3): the four timestamps are pairwise distinct
    * and all fall within a window of `delta`.
    */
  def isValid(s1: Long, a1: Long, s2: Long, a2: Long, delta: Long): Boolean = {
    if (s1 == a1 || s1 == s2 || s1 == a2 || a1 == s2 || a1 == a2 || s2 == a2) return false
    val mx = math.max(math.max(s1, a1), math.max(s2, a2))
    val mn = math.min(math.min(s1, a1), math.min(s2, a2))
    Sat.within(mn, mx, delta)
  }
}

/** One enumerated temporal butterfly instance in canonical form: the two
  * upper-layer original ids sorted, the two lower-layer original ids sorted,
  * and the four timestamps ascending. Canonicalization makes instance
  * multisets comparable across TBE, TBE+, the Spark pipeline, and the
  * brute-force reference.
  */
final case class Instance(
    btype: Int,
    u0: Long, u1: Long,
    l0: Long, l1: Long,
    t0: Long, t1: Long, t2: Long, t3: Long,
)

object Instance {

  /** Field by field, so collected instances have one order whatever the schedule. */
  implicit val ordering: Ordering[Instance] =
    Ordering.by((i: Instance) => (i.btype, i.u0, i.u1, i.l0, i.l1, i.t0, i.t1, i.t2, i.t3))

  /** Build a canonical instance from an emitted wedge pair.
    *
    * `start`/`end` share a layer; `mid1`/`mid2` are on the other layer. Ids
    * are original per-layer ids; `startLayer` says which layer `start` is on.
    */
  def canonical(
      btype: Int, startLayer: Int,
      start: Long, end: Long, mid1: Long, mid2: Long,
      s1: Long, a1: Long, s2: Long, a2: Long): Instance = {
    val (uA, uB, lA, lB) =
      if (startLayer == 0) (start, end, mid1, mid2) else (mid1, mid2, start, end)
    val ts = Array(s1, a1, s2, a2).sorted
    Instance(btype,
      math.min(uA, uB), math.max(uA, uB),
      math.min(lA, lB), math.max(lA, lB),
      ts(0), ts(1), ts(2), ts(3))
  }
}
