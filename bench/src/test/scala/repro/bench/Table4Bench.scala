package repro.bench

import org.scalatest.funsuite.AnyFunSuite

import repro.eval.Eval

/** Reproduces Table 4 of the paper: the distribution of per-type temporal
  * butterfly counts at delta = 40 days, for all 11 (scaled synthetic)
  * datasets, counted exactly with TBC++.
  */
class Table4Bench extends AnyFunSuite {

  test("Table 4: distribution of counts while delta = 40 days") {
    println("\n=== Table 4: The distribution of counts while delta = 40 days ===")
    val rows = Eval.table4()

    rows.foreach { r =>
      assert(r.counts.sum > 0, s"${r.key}: butterflies exist at 40 days")
      assert(math.abs(r.pcts.sum - 100.0) < 1e-6, s"${r.key}: percentages sum to 100")
    }
    // The paper's strongest cross-dataset regularity: T4/T5 are the least
    // frequent pair on (almost) every dataset. Check it holds on most of
    // our synthetic counterparts.
    val holds = rows.count { r =>
      val worstPair = (r.pcts(4) + r.pcts(5)) / 2
      val rest = (r.pcts(0) + r.pcts(1) + r.pcts(2) + r.pcts(3)) / 4
      worstPair <= rest + 1e-9
    }
    assert(holds >= rows.length - 2, s"T4/T5 below average on most datasets ($holds/11)")
  }
}
