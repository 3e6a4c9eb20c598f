package repro.bench

import org.scalatest.funsuite.AnyFunSuite

import repro.eval.Eval

/** Figure 13/14/16-style sweep of the duration constraint: wall time per
  * algorithm and per-type counts for delta in {10, 20, 40, 80, 160} days
  * on two representative datasets.
  */
class DeltaSweepBench extends AnyFunSuite {

  private val LimitMs = 30000L
  private val Keys = Seq("WN", "CU")

  for (key <- Keys)
    test(s"Varying delta on $key: time and counts") {
      val sweep = Eval.deltaSweep(key, LimitMs)

      // counts are monotone in delta (more permutations fit a larger window)
      val totals = sweep.map(_._3.counts.sum)
      assert(totals == totals.sorted, s"$key: counts monotone in delta")
      // per-type monotonicity holds as well
      for (t <- 0 until 6) {
        val per = sweep.map(_._3.counts(t))
        assert(per == per.sorted, s"$key: T$t monotone in delta")
      }
    }
}
