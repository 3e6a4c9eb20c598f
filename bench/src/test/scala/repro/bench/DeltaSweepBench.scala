package repro.bench

import org.scalatest.funsuite.AnyFunSuite

import repro.eval.Eval
import repro.graph.Datasets

/** Figure 13/14/16-style sweep of the duration constraint: wall time per
  * algorithm and per-type counts for delta in {10, 20, 40, 80, 160} days
  * on two representative datasets.
  */
class DeltaSweepBench extends AnyFunSuite {

  private val LimitMs = 30000L
  private val Keys = Seq("WN", "CU")
  private val DeltasDays = Seq(10L, 20L, 40L, 80L, 160L)

  for (key <- Keys)
    test(s"Varying delta on $key: time and counts") {
      val spec = Datasets.byKey(key)
      val algos = Eval.CountingAlgos ++ Eval.EnumAlgos
      val sweep = DeltasDays.map { d =>
        val delta = d * 86400L
        (d, Eval.perfRow(spec, delta, LimitMs, algos), Eval.table4Row(spec, delta))
      }
      println(s"\n=== Varying delta on $key (TLE = ${LimitMs / 1000}s) ===")
      Eval.printTimingTable(
        Seq("delta") ++ algos.map(_._1 + "(ms)") ++ Seq("Total") ++ (0 until 6).map(i => s"T$i"),
        sweep.map { case (d, row, dist) =>
          Seq(s"${d}d") ++ row.results.map { case (_, r) => Eval.fmtMs(r) } ++
            Seq(dist.counts.sum.toString) ++ dist.pcts.map(p => f"$p%.0f%%")
        })

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
