package repro.bench

import org.scalatest.funsuite.AnyFunSuite

import repro.eval.Eval

/** Figure 15-style scalability over random edge subsets {20..100}%,
  * averaged over repetitions, per counting variant.
  */
class ScalabilityBench extends AnyFunSuite {

  private val LimitMs = 30000L
  private val Keys = Seq("CU", "TW")
  private val Fractions = Eval.ScalabilityFractions

  for (key <- Keys)
    test(s"Scalability on $key: time vs |E| fraction") {
      val table = Eval.scalability(key, LimitMs, reps = 2, seed = 17)

      // TBC++ must complete at every fraction; the baseline's cost explodes
      // with |E| while the optimized algorithm stays far ahead — the
      // paper's scalability claim, asserted at the full-size point where
      // timings are no longer noise-dominated.
      val pp = table.map(_._2.collectFirst { case ("plusplus", Right(ms)) => ms }.get)
      assert(pp.length == Fractions.length)
      table.last._2.collectFirst { case ("baseline", Right(ms)) => ms } match {
        case Some(base) => assert(pp.last * 10 < base,
          f"TBC++ (${pp.last}%.1f ms) at least 10x faster than TBC ($base%.1f ms) at 100%%")
        case None => () // baseline TLE'd at full size — an even stronger gap
      }
    }
}
