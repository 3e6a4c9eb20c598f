package repro.approx

import org.scalatest.funsuite.AnyFunSuite

import repro.TestUtil
import repro.core.{BruteForce, Variant}
import repro.graph.{SynthBipartite, TemporalEdge}

/** Approximation substrate (Appendix A): sampling estimator statistics and
  * the windowed sGrapp reproduction.
  */
class ApproxSpec extends AnyFunSuite {

  private def stream(seed: Int, n: Int): IndexedSeq[TemporalEdge] =
    TestUtil.randomEdges(seed, 6, 6, n, 500).sortBy(_.t)

  // ---------- ApproxTBC ----------

  test("p = 1 reproduces the exact counts for every variant") {
    val edges = stream(1, 150)
    val exact = BruteForce.countByType(edges, 100)
    for (variant <- Variant.all) {
      val est = ApproxTBC.estimate(edges, 100, p = 1.0, seed = 9, variant)
      assert(est.zip(exact).forall { case (e, x) => e == x.toDouble })
    }
  }

  test("invalid sampling probabilities are rejected") {
    val edges = stream(2, 20)
    intercept[IllegalArgumentException](ApproxTBC.estimate(edges, 10, 0.0, 1))
    intercept[IllegalArgumentException](ApproxTBC.estimate(edges, 10, 1.5, 1))
  }

  test("estimator is unbiased within tolerance over many seeds") {
    val edges = stream(3, 160)
    val delta = 120L
    val exact = BruteForce.countByType(edges, delta)
    val trials = 400
    val mean = new Array[Double](6)
    for (s <- 1 to trials) {
      val est = ApproxTBC.estimate(edges, delta, p = 0.7, seed = s, Variant.PlusPlus)
      for (i <- 0 until 6) mean(i) += est(i) / trials
    }
    val total = exact.sum.toDouble
    assert(total > 0, "test graph must contain butterflies")
    val relErr = math.abs(mean.sum - total) / total
    assert(relErr < 0.25, s"empirical mean off by ${relErr * 100}%")
  }

  test("MAPE is zero for an exact estimate and positive otherwise") {
    val exact = Array(10L, 20L, 0L, 5L, 1L, 4L)
    val same = exact.map(_.toDouble)
    assert(ApproxTBC.mape(same, exact) == 0.0)
    val off = exact.map(_ * 2.0)
    assert(ApproxTBC.mape(off, exact) > 0.9)
  }

  test("MAPE skips all-zero exact counts") {
    assert(ApproxTBC.mape(Array.fill(6)(3.0), Array.fill(6)(0L)) == 0.0)
  }

  test("smaller p increases dispersion (sanity of the sampling regime)") {
    val edges = stream(4, 160)
    val delta = 120L
    def spread(p: Double): Double = {
      val xs = (1 to 60).map(s => ApproxTBC.estimate(edges, delta, p, s).sum)
      val m = xs.sum / xs.length
      math.sqrt(xs.map(x => (x - m) * (x - m)).sum / xs.length)
    }
    assert(spread(0.3) > spread(0.9))
  }

  test("estimators reject a negative delta, even with nothing to count") {
    for (delta <- Seq(-1L, Long.MinValue); edges <- Seq(stream(8, 60), IndexedSeq.empty[TemporalEdge])) {
      TestUtil.assertRejectsDelta(delta, "ApproxTBC")(ApproxTBC.estimate(edges, delta, 0.5, seed = 1))
      TestUtil.assertRejectsDelta(delta, "sGrapp estimate")(SGrappTBC.estimate(edges, delta, 10, Array.fill(6)(0.0)))
      TestUtil.assertRejectsDelta(delta, "sGrapp calibrate")(SGrappTBC.calibrate(edges, delta, 10, calibWindows = 2))
    }
  }

  // ---------- sGrappTBC ----------

  test("window segmentation respects unique-timestamp budgets") {
    val edges = IndexedSeq(1L, 1L, 2L, 3L, 3L, 4L, 5L).zipWithIndex
      .map { case (t, i) => TemporalEdge(i.toLong, 0L, t) }
    val ws = SGrappTBC.windows(edges, nTW = 2)
    assert(ws.map(_.length).sum == edges.length)
    assert(ws.forall(w => w.map(_.t).distinct.length <= 2))
    assert(ws.length == 3)
  }

  test("window segmentation counts a first timestamp at Long.MinValue") {
    for (t0 <- Seq(0L, Long.MinValue)) {
      val edges = IndexedSeq(t0, t0 + 1, t0 + 2).map(t => TemporalEdge(0L, 0L, t))
      assert(SGrappTBC.windows(edges, nTW = 1).length == 3, s"t0 = $t0")
    }
  }

  test("window segmentation rejects a non-positive budget, naming it") {
    val edges = IndexedSeq(TemporalEdge(0, 0, 1))
    for (nTW <- Seq(0, -4)) {
      val err = intercept[IllegalArgumentException](SGrappTBC.windows(edges, nTW))
      assert(err.getMessage.contains(s"nTW = $nTW"), err.getMessage)
    }
  }

  test("a single window with theta=0 is exact") {
    val edges = stream(5, 120)
    val exact = BruteForce.countByType(edges, 90)
    val est = SGrappTBC.estimate(edges, 90, nTW = Int.MaxValue, theta = Array.fill(6)(0.0))
    assert(est.windows == 1)
    assert(est.perType.zip(exact).forall { case (e, x) => e == x.toDouble })
  }

  test("theta=0 with many windows undercounts (within-window lower bound)") {
    val edges = stream(6, 200)
    val exact = BruteForce.countByType(edges, 150)
    val est = SGrappTBC.estimate(edges, 150, nTW = 12, theta = Array.fill(6)(0.0))
    assert(est.windows > 1)
    for (i <- 0 until 6) assert(est.perType(i) <= exact(i).toDouble)
  }

  test("calibrated theta reduces MAPE versus theta=0") {
    val edges = SynthBipartite.generate(SynthBipartite.Config(
      nU = 25, nL = 30, nE = 900, spanDays = 100, seed = 11))
    val delta = 30L * SynthBipartite.SecondsPerDay
    val exact = BruteForce.countByType(edges, delta)
    assert(exact.sum > 0)
    val nTW = 80
    val zero = SGrappTBC.estimate(edges, delta, nTW, Array.fill(6)(0.0))
    val theta = SGrappTBC.calibrate(edges, delta, nTW, calibWindows = 3)
    val cal = SGrappTBC.estimate(edges, delta, nTW, theta)
    val mape0 = ApproxTBC.mape(zero.perType, exact)
    val mapeC = ApproxTBC.mape(cal.perType, exact)
    assert(mapeC <= mape0 + 1e-9, s"calibrated $mapeC vs zero $mape0")
  }

  test("calibrate returns non-negative coefficients") {
    val edges = stream(7, 250)
    val theta = SGrappTBC.calibrate(edges, 150, nTW = 15, calibWindows = 2)
    assert(theta.forall(_ >= 0.0))
  }
}
