package repro.stream

import repro.core.ButterflyType.addCounts
import repro.graph.TemporalEdge
import repro.util.Sat

/** Sliding-window streaming temporal butterfly counting (§ 6.2).
  *
  * The stream is a chronologically-sorted edge sequence; the window holds
  * `window` edges and advances by `stride` edges per step (both measured in
  * edges, as in the paper's Sliding Window Model setup). At every step the
  * maintained per-type counts equal an exact from-scratch count over the
  * window contents — incrementality never approximates.
  *
  * `threads == 0` selects the sequential single-edge algorithm STBC;
  * `threads >= 1` selects the batch algorithm STBC+ with that many worker
  * threads (STBC+-1 matches the paper's single-thread batch variant).
  */
object SlidingWindow {

  final case class Step(index: Int, windowStart: Int, windowEnd: Int, counts: Array[Long])

  def run(
      edges: IndexedSeq[TemporalEdge], window: Int, stride: Int, delta: Long,
      threads: Int = 0,
      onStep: Step => Unit = _ => ()): Array[Long] = {
    require(window > 0 && stride > 0 && stride <= window,
      s"need 0 < stride <= window, got window = $window, stride = $stride")
    require(threads >= 0, s"threads must be 0 (STBC) or at least 1 (STBC+), got $threads")
    Sat.requireDelta(delta)
    for (k <- 1 until edges.length) require(edges(k - 1).t <= edges(k).t,
      s"stream edges must be chronologically sorted, got ${edges(k)} after ${edges(k - 1)}")

    val g = new StreamGraph
    val counts = new Array[Long](6)

    // Insert (sign 1) or expire (sign -1) the edges `lo until hi`.
    def update(lo: Int, hi: Int, sign: Long): Unit =
      if (threads == 0) {
        var i = lo
        while (i < hi) {
          val e = edges(i)
          if (sign > 0) g.insert(e)
          addCounts(counts, STBC.countContaining(g, e, delta), sign)
          if (sign < 0) g.delete(e)
          i += 1
        }
      } else {
        val batch = edges.slice(lo, hi)
        addCounts(counts,
          if (sign > 0) STBCPlus.insertBatch(g, batch, delta, threads)
          else STBCPlus.deleteBatch(g, batch, delta, threads), sign)
      }

    val firstEnd = math.min(window, edges.length)
    update(0, firstEnd, 1L)
    var stepIdx = 0
    var start = 0
    var end = firstEnd
    onStep(Step(stepIdx, start, end, counts.clone()))

    while (end < edges.length) {
      val newEnd = math.min(end + stride, edges.length)
      // insert the incoming stride first, then expire the oldest edges —
      // the paper's STBC+ protocol (all insertions land before counting,
      // deletions are counted before they are applied).
      update(end, newEnd, 1L)
      val newStart = start + (newEnd - end)
      update(start, newStart, -1L)
      start = newStart
      end = newEnd
      stepIdx += 1
      onStep(Step(stepIdx, start, end, counts.clone()))
    }
    counts
  }
}
