package repro.bench

import org.scalatest.funsuite.AnyFunSuite

import repro.eval.Eval

/** Reproduces Table 3 of the paper: the summary of the 11 datasets.
  *
  * The real KONECT datasets are substituted by synthetic graphs at ~1/256
  * scale; the printed table carries the paper's statistics next to ours so
  * the preserved ratios (|U| : |L| : |E|, time span) can be eyeballed.
  * Paper-vs-measured numbers are recorded in EXPERIMENTS.md.
  */
class Table3Bench extends AnyFunSuite {

  test("Table 3: dataset summary (scaled synthetic vs paper)") {
    println("\n=== Table 3: The summary of datasets (synthetic, scale ~1/256) ===")
    val rows = Eval.table3()

    // shape assertions: the ordering by |E| and the time spans survive scaling
    val es = rows.map(_.e)
    assert(es == es.sorted, "scaled datasets keep the paper's |E| ordering")
    rows.foreach { r =>
      assert(math.abs(r.spanDays - r.paperSpanDays) / r.paperSpanDays < 0.05,
        s"${r.key}: time span preserved within 5%")
      assert(r.e >= 500 && r.u >= 2 && r.l >= 2)
    }
  }
}
