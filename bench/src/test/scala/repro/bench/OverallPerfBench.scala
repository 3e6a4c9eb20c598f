package repro.bench

import org.scalatest.funsuite.AnyFunSuite

import repro.eval.Eval

/** Figure 11-style overall performance of the five algorithms at
  * delta = 40 days with a 30 s TLE cap (the analogue of the paper's
  * 100,000 s limit — the baseline is expected to TLE on the heavy
  * datasets, exactly as it did on LF/WT in the paper).
  */
class OverallPerfBench extends AnyFunSuite {

  // Baselines that blow the cap are hopeless (quadratic combine); the
  // optimized algorithms get a longer leash because EP/LF carry >10^8
  // instances and TBE+ legitimately needs a minute+ to walk them all.
  private val LimitMs: String => Long = {
    case "TBC" | "TBE" => 30000L
    case _             => 180000L
  }

  test("Overall performance: TBC/TBC+/TBC++ and TBE/TBE+ per dataset") {
    println(s"\n=== Overall performance (delta = 40 days, TLE = 30s/180s) ===")
    val perf = Eval.overallPerf(LimitMs)

    def ms(row: Eval.PerfRow, name: String): Option[Double] =
      row.results.collectFirst { case (`name`, Right(t)) => t.millis }

    // Shape assertions mirroring the paper's claims:
    // (1) TBC++ always completes;
    perf.foreach { case (spec, row) =>
      assert(ms(row, "TBC++").isDefined, s"${spec.key}: TBC++ completes")
    }
    // (2) the optimized counters never lose to the baseline by more than
    //     noise on any dataset where the baseline completed, and win
    //     clearly in aggregate;
    var baseSum = 0.0; var ppSum = 0.0; var comparable = 0
    perf.foreach { case (_, row) =>
      (ms(row, "TBC"), ms(row, "TBC++")) match {
        case (Some(b), Some(p)) => baseSum += b; ppSum += p; comparable += 1
        case _ => ()
      }
    }
    assert(comparable >= 3, "baseline completes on the easy datasets")
    assert(ppSum < baseSum, f"TBC++ aggregate ($ppSum%.0f ms) beats TBC ($baseSum%.0f ms)")
    // (3) counting and enumeration agree on totals where both finished.
    perf.foreach { case (spec, row) =>
      (row.results.collectFirst { case ("TBC++", Right(t)) => t.value.sum },
       row.results.collectFirst { case ("TBE+", Right(t)) => t.value.sum }) match {
        case (Some(c), Some(e)) => assert(c == e, s"${spec.key}: counts == enumerated")
        case _ => ()
      }
    }
  }
}
