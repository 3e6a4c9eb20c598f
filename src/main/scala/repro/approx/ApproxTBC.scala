package repro.approx

import scala.util.Random

import repro.core.{LocalAlgos, Variant}
import repro.graph.{LocalGraph, TemporalEdge}
import repro.util.Sat

/** ApproxTBC / ApproxTBC+ / ApproxTBC++ (Appendix A).
  *
  * The state-of-the-art static approximation ApproxBFC keeps each edge
  * independently with probability `p` and scales the exact count on the
  * sampled graph by `p^-4` (a butterfly survives iff all four of its edges
  * survive). The paper plugs its exact temporal counters into that scheme
  * unchanged, applied per butterfly type; the estimator stays unbiased
  * because expectation is linear over the per-type indicator sums.
  */
object ApproxTBC {

  /** One sampled-and-scaled estimate of the six per-type counts. */
  def estimate(
      edges: Seq[TemporalEdge], delta: Long, p: Double, seed: Long,
      variant: Variant = Variant.PlusPlus): Array[Double] = {
    require(p > 0 && p <= 1, s"sampling probability must be in (0, 1], got $p")
    Sat.requireDelta(delta)
    val rnd = new Random(seed)
    val sampled = edges.filter(_ => rnd.nextDouble() < p)
    val scale = math.pow(p, -4.0)
    if (sampled.isEmpty) return new Array[Double](6)
    val exact = LocalAlgos.count(LocalGraph.fromEdges(sampled), delta, variant)
    exact.map(_ * scale)
  }

  /** Mean absolute percentage error across the six types, the accuracy
    * metric of the appendix experiments. Types with a zero exact count are
    * skipped (their relative error is undefined).
    */
  def mape(est: Array[Double], exact: Array[Long]): Double = {
    var sum = 0.0; var n = 0
    var i = 0
    while (i < 6) {
      if (exact(i) != 0) { sum += math.abs(est(i) - exact(i)) / exact(i); n += 1 }
      i += 1
    }
    if (n == 0) 0.0 else sum / n
  }
}
