package repro.approx

import scala.collection.mutable.ArrayBuffer

import repro.core.{LocalAlgos, Variant}
import repro.core.ButterflyType.addCounts
import repro.graph.{LocalGraph, TemporalEdge}
import repro.util.Sat

/** sGrappTBC / sGrappTBC+ / sGrappTBC++ (Appendix A).
  *
  * sGrapp segments the stream into non-overlapping windows of `nTW` unique
  * timestamps, counts butterflies exactly *within* each window with an
  * exact algorithm (here: our temporal counters, per type), and estimates
  * the butterflies *spanning* window boundaries from the empirical
  * power-law between cumulative edge count `EC` and cumulative butterfly
  * count: inter-window count after window k is modeled as
  * `theta_i * EC_k^alpha` for type i.
  *
  * The original sGrapp fits `alpha` on the observed stream and requires a
  * hand-tuned `theta` per dataset; the paper likewise presets a `theta_i`
  * per type (typically giving alpha in [1.0, 1.5]). We reproduce that via
  * [[calibrate]]: run the first `calibWindows` windows, compare against the
  * exact prefix counts, and solve for `theta_i` at a fixed `alpha` = 1.2.
  */
object SGrappTBC {

  private val Alpha = 1.2

  final case class Estimate(perType: Array[Double], windows: Int, edgesSeen: Long)

  /** Split a chronological stream into windows of `nTW` unique timestamps. */
  def windows(edges: IndexedSeq[TemporalEdge], nTW: Int): IndexedSeq[IndexedSeq[TemporalEdge]] = {
    require(nTW > 0, s"sGrapp needs at least 1 timestamp per window, got nTW = $nTW")
    val out = ArrayBuffer.empty[IndexedSeq[TemporalEdge]]
    val cur = ArrayBuffer.empty[TemporalEdge]
    var uniq = 0
    edges.foreach { e =>
      // Only the first edge meets an empty `cur`: a clear is refilled at once.
      val isNewT = cur.isEmpty || e.t != cur.last.t
      if (isNewT && uniq == nTW) {
        out += cur.toIndexedSeq; cur.clear(); uniq = 0
      }
      if (isNewT) uniq += 1
      cur += e
    }
    if (cur.nonEmpty) out += cur.toIndexedSeq
    out.toIndexedSeq
  }

  /** Estimate per-type counts for the whole stream.
    *
    * @param theta per-type inter-window coefficients (length 6); 0 yields
    *              the pure within-window lower bound
    */
  def estimate(
      edges: IndexedSeq[TemporalEdge], delta: Long, nTW: Int,
      theta: Array[Double],
      variant: Variant = Variant.PlusPlus): Estimate = {
    Sat.requireDelta(delta)
    val ws = windows(edges, nTW)
    val within = new Array[Long](6)
    var ec = 0L
    ws.foreach { w =>
      addCounts(within, LocalAlgos.count(LocalGraph.fromEdges(w), delta, variant))
      ec += w.length
    }
    val est = new Array[Double](6)
    var i = 0
    while (i < 6) {
      val inter = if (ws.length > 1) theta(i) * math.pow(ec.toDouble, Alpha) else 0.0
      est(i) = within(i) + inter
      i += 1
    }
    Estimate(est, ws.length, ec)
  }

  /** Fit `theta_i` so the estimate matches the exact count on a calibration
    * prefix of `calibWindows` windows.
    */
  def calibrate(
      edges: IndexedSeq[TemporalEdge], delta: Long, nTW: Int,
      calibWindows: Int,
      variant: Variant = Variant.PlusPlus): Array[Double] = {
    val ws = windows(edges, nTW)
    val prefix = ws.take(math.max(2, calibWindows))
    val flat = prefix.flatten
    val exact = LocalAlgos.count(LocalGraph.fromEdges(flat), delta, variant)
    val within = new Array[Long](6)
    prefix.foreach(w => addCounts(within, LocalAlgos.count(LocalGraph.fromEdges(w), delta, variant)))
    val ec = flat.length.toDouble
    Array.tabulate(6) { i =>
      val inter = exact(i) - within(i)
      if (inter <= 0 || ec <= 0) 0.0 else inter / math.pow(ec, Alpha)
    }
  }
}
