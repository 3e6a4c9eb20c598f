package repro

import scala.util.Random

import org.scalatest.Assertions

import repro.graph.TemporalEdge

/** Shared helpers for the unit-test suites. */
object TestUtil {

  /** Uniform random temporal bipartite graph — deliberately independent of
    * [[repro.graph.SynthBipartite]] so generator bugs cannot mask algorithm
    * bugs. Timestamps land in `[0, tMax)`, so small `tMax` forces repeated
    * timestamps and exercises the distinctness rules.
    */
  def randomEdges(seed: Long, nU: Int, nL: Int, nE: Int, tMax: Long): IndexedSeq[TemporalEdge] = {
    val rnd = new Random(seed)
    IndexedSeq.fill(nE)(
      TemporalEdge(rnd.nextInt(nU).toLong, rnd.nextInt(nL).toLong, (rnd.nextDouble() * tMax).toLong))
  }

  /** A single butterfly on vertices u0,u1 (upper) and l0,l1 (lower) with the
    * given edge timestamps t(u0,l0), t(u1,l0), t(u0,l1), t(u1,l1).
    */
  def singleButterfly(tuv: Long, twv: Long, tux: Long, twx: Long): IndexedSeq[TemporalEdge] =
    IndexedSeq(
      TemporalEdge(0, 0, tuv),
      TemporalEdge(1, 0, twv),
      TemporalEdge(0, 1, tux),
      TemporalEdge(1, 1, twx))

  def assertCountsEqual(expected: Array[Long], got: Array[Long], label: String): Unit =
    assert(expected.sameElements(got),
      s"$label: expected ${expected.mkString("[", ",", "]")} got ${got.mkString("[", ",", "]")}")

  /** `f` must reject the negative `delta` with an error that names it. */
  def assertRejectsDelta(delta: Long, label: String)(f: => Any): Unit = {
    val e = Assertions.intercept[IllegalArgumentException](f)
    assert(e.getMessage.contains(s"delta = $delta"), s"$label: ${e.getMessage}")
  }
}
