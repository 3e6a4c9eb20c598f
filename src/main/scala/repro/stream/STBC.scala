package repro.stream

import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

import repro.core.{LocalCombine, Variant}
import repro.graph.TemporalEdge
import repro.util.Sat

/** STBC (Algorithm 7): exact incremental counting of the temporal
  * butterflies that contain one given edge, for single-edge stream updates.
  *
  * The edge's upper endpoint `u` serves as the start-vertex (vertex priority
  * is irrelevant here — every butterfly through the edge must be counted).
  * Butterflies containing `e = (u, v, t)` decompose uniquely into:
  *
  *   - the wedge `u -> v -> w` whose first leg is `e` itself, and
  *   - a wedge `u -> x -> w` through some other middle-vertex `x != v`,
  *
  * so per end-vertex `w` we run one SetCross between the `via-v` set and
  * the merged `via-other` set — the two-wedge-set simplification of § 5,
  * built and crossed by the static TBC++ combine.
  * Traversal ranges are compressed to `[t - delta, t + delta]` (and the
  * second hop to `[max(t,t') - delta, min(t,t') + delta]`) via binary
  * search on the time-sorted adjacency queues.
  */
object STBC {

  /** Counts (per type) of the temporal butterflies containing `e`. The edge
    * must currently be present in `g`.
    */
  def countContaining(g: StreamGraph, e: TemporalEdge, delta: Long): Array[Long] = {
    Sat.requireDelta(delta)
    val counts = new Array[Long](6)
    val u = g.upperSlot(e.u)
    val v = g.lowerSlot(e.v)
    val t = e.t
    val lo = Sat.add(t, -delta)
    val hi = Sat.add(t, delta)

    // end-vertex slot -> raw wedges `(mid, s, a)`, whose `mid` field carries
    // the side label: 0 = through v with first leg e, 1 = through x != v.
    // Only end-vertices reached through v can close a butterfly with e.
    val h = mutable.HashMap.empty[Int, ArrayBuffer[(Long, Long, Long)]]
    g.foreachInRange(v, lo, loStrict = false, hi, hiStrict = false) { (w, t2) =>
      if (w != u && t2 != t)
        h.getOrElseUpdate(w, new ArrayBuffer) += ((0L, t, t2))
    }
    g.foreachInRange(u, lo, loStrict = false, hi, hiStrict = false) { (x, t1) =>
      if (x != v && t1 != t) {
        val lo2 = Sat.add(math.max(t, t1), -delta)
        val hi2 = Sat.add(math.min(t, t1), delta)
        g.foreachInRange(x, lo2, loStrict = false, hi2, hiStrict = false) { (w, t2) =>
          if (w != u && t2 != t && t2 != t1)
            h.get(w).foreach(_ += ((1L, t1, t2)))
        }
      }
    }

    // The two labels become the two wedge sets of LocalCombine.buildSides,
    // and the start-vertex is the upper endpoint, so layer = 0. Via-v wedges
    // come first, so a label-1 last wedge means both sets are non-empty.
    h.foreach { case (_, ws) =>
      if (ws.last._1 == 1L) LocalCombine.count(ws, layer = 0, delta, Variant.PlusPlus, counts)
    }
    counts
  }
}
