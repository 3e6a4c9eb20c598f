package repro.stream

import scala.collection.mutable

import repro.core.ButterflyType.addCounts
import repro.graph.TemporalEdge
import repro.util.{LongBuf, ParFold, Sat}

/** STBC+ (Algorithm 8): batch stream updates with multi-core parallelism.
  *
  * Count conflicts across a batch are resolved by Lemma 8: a temporal
  * butterfly is charged to exactly one batch edge — the one holding its
  * unique minimum timestamp for deletions (traversal range `(t, t + delta]`)
  * and its unique maximum for insertions (range `[t - delta, t)`). With the
  * range pinned to one side of `t`, the duration constraint holds by
  * construction, so the dynamic red-black trees of TBC++ degrade to two
  * plain sorted arrays `VS`/`VA` per direction and every coverage case is a
  * pair of binary searches.
  *
  * The maximum-side counting is implemented by time reversal: mapping every
  * timestamp `t` to `~t` (= `-t - 1`, which reverses order over the whole
  * `Long` range, unlike negation) turns "edge is the unique maximum over
  * `[t - delta, t)`" into "edge is the unique minimum over
  * `(~t, ~t + delta]`", and the butterfly type is invariant under time
  * reversal (both wedge directions flip, so direction-equality and coverage
  * are preserved).
  *
  * Batch edges are shared out one at a time over `threads` [[ParFold]]
  * workers; each accumulates into a private count array and the partials
  * are summed — no shared mutable state during counting (edges are
  * physically inserted before / deleted after the counting pass, exactly as
  * the paper prescribes to avoid read-write conflicts).
  */
object STBCPlus {

  /** Per-direction sorted leg arrays — the paper's `VS` (start legs) and
    * `VA` (end legs), sorted independently.
    */
  private final class DirArrays {
    val vs = new LongBuf
    val va = new LongBuf
    def sortInPlace(): Unit = { vs.sortInPlace(); va.sortInPlace() }

    /** Add the coverage cases of a via-v wedge with end leg `a` versus these
      * wedges into `counts(base + 0..2)`. That wedge is forward with the
      * globally minimal start leg, so each case is a rank query (cf. Query()
      * of Algorithm 4); c13 = #(vs < a) - #(va <= a) because `va <= a`
      * implies `vs < a`.
      */
    def addCases(a: Long, counts: Array[Long], base: Int): Unit = {
      counts(base) += vs.length - vs.rank(a, inclusive = true)                       // c11
      counts(base + 1) += vs.rank(a, inclusive = false) - va.rank(a, inclusive = true) // c13
      counts(base + 2) += va.rank(a, inclusive = false)                                // c15
    }
  }

  /** Count the butterflies in which `e` carries the strict minimum
    * timestamp (`asMin = true`) or strict maximum (`asMin = false`).
    * The edge must be present in `g`.
    */
  def countExtreme(g: StreamGraph, e: TemporalEdge, delta: Long, asMin: Boolean): Array[Long] = {
    Sat.requireDelta(delta)
    val counts = new Array[Long](6)
    val u = g.upperSlot(e.u)
    val v = g.lowerSlot(e.v)
    val t = e.t
    // Under time reversal every collected timestamp `x` becomes `~x`;
    // `x ^ flip` folds that into the collection step.
    val flip = if (asMin) 0L else -1L
    // The range excludes `t` itself: (t, t + delta] or [t - delta, t).
    val (lo, hi) = if (asMin) (t, Sat.add(t, delta)) else (Sat.add(t, -delta), t)

    // end-vertex slot -> (via-v end legs, via-other wedges split by direction)
    val h = mutable.HashMap.empty[Int, (LongBuf, DirArrays, DirArrays)]
    def entry(w: Int) = h.getOrElseUpdate(w, (new LongBuf, new DirArrays, new DirArrays))

    g.foreachInRange(u, lo, asMin, hi, !asMin) { (x, t1) =>
      if (x != v) {
        g.foreachInRange(x, lo, asMin, hi, !asMin) { (w, t2) =>
          if (w != u && t2 != t1) {
            val (_, fwd, bwd) = entry(w)
            val s = t1 ^ flip; val a = t2 ^ flip
            val d = if (s < a) fwd else bwd
            d.vs += math.min(s, a)
            d.va += math.max(s, a)
          }
        }
      }
    }
    g.foreachInRange(v, lo, asMin, hi, !asMin) { (w, t2) =>
      if (w != u) entry(w)._1 += t2 ^ flip
    }

    h.foreach { case (_, (viaV, fwd, bwd)) =>
      if (viaV.nonEmpty && (fwd.vs.nonEmpty || bwd.vs.nonEmpty)) {
        fwd.sortInPlace(); bwd.sortInPlace()
        var i = 0
        while (i < viaV.length) {
          fwd.addCases(viaV(i), counts, 0)
          bwd.addCases(viaV(i), counts, 3)
          i += 1
        }
      }
    }
    counts
  }

  /** Parallel fold of `countExtreme` over a batch; one thread runs inline. */
  private def batchCount(
      g: StreamGraph, batch: Seq[TemporalEdge], delta: Long,
      asMin: Boolean, threads: Int): Array[Long] = {
    val edges = batch.toIndexedSeq
    val total = new Array[Long](6)
    ParFold(edges.length, threads)(new Array[Long](6)) { (local, i) =>
      addCounts(local, countExtreme(g, edges(i), delta, asMin))
    }.foreach(addCounts(total, _))
    total
  }

  /** Insert a chronologically-sorted batch; returns the per-type counts of
    * butterflies created. Edges are inserted first, then counted (each on
    * its maximum-timestamp edge), per the paper's conflict-free protocol.
    * The whole batch is checked first, so a rejected batch changes nothing.
    */
  def insertBatch(g: StreamGraph, batch: Seq[TemporalEdge], delta: Long,
                  threads: Int = 1): Array[Long] = {
    Sat.requireDelta(delta)
    require(threads >= 1, s"STBC+ needs at least 1 thread, got $threads")
    g.requireInsertable(batch)
    batch.foreach(g.insert)
    batchCount(g, batch, delta, asMin = false, threads)
  }

  /** Delete a batch of the globally-oldest edges; returns the per-type
    * counts of butterflies destroyed. Counting happens before deletion
    * (each butterfly on its minimum-timestamp edge). The whole batch is
    * checked first, so a rejected batch changes nothing.
    */
  def deleteBatch(g: StreamGraph, batch: Seq[TemporalEdge], delta: Long,
                  threads: Int = 1): Array[Long] = {
    Sat.requireDelta(delta)
    require(threads >= 1, s"STBC+ needs at least 1 thread, got $threads")
    g.requireDeletable(batch)
    val removed = batchCount(g, batch, delta, asMin = true, threads)
    batch.foreach(g.delete)
    removed
  }
}
