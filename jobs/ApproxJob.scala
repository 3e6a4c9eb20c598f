package repro.jobs

import repro.approx.{ApproxTBC, SGrappTBC}
import repro.core.{LocalAlgos, Variant}
import repro.eval.Eval
import repro.graph.Datasets

/** Appendix A (Figures 21/22)-style approximation evaluation on the WN and
  * TW counterparts: ApproxTBC time + MAPE over sampling probability p, and
  * sGrappTBC time + MAPE over the window parameter N_t^W.
  *
  * spark-submit --class repro.jobs.ApproxJob <jar> [datasetKeys...]
  */
object ApproxJob {
  def main(args: Array[String]): Unit = {
    val keys = JobArgs.datasetKeys(args.toSeq, "WN", "TW")
    ApproxEval.approxSweep(keys)
    ApproxEval.sgrappSweep(keys)
  }
}

/** Shared approximation sweeps (also driven by the bench suites). */
object ApproxEval {

  private val delta = Datasets.DefaultDeltaSeconds
  private val Trials = 5

  def approxSweep(keys: Seq[String], out: String => Unit = println): Unit = {
    for (key <- keys) {
      val spec = Datasets.byKey(key)
      val edges = Eval.edgesOf(spec)
      val exact = LocalAlgos.tbcPlusPlus(Eval.graphOf(spec), delta)
      out(s"== $key: ApproxTBC over p (exact total = ${exact.sum}) ==")
      val rows = Seq(0.2, 0.4, 0.6, 0.8).map { p =>
        val cells = Variant.all.map { v =>
          var ms = 0.0; var err = 0.0
          for (s <- 1 to Trials) {
            val t = Eval.time(ApproxTBC.estimate(edges, delta, p, seed = s, v))
            ms += t.millis / Trials
            err += ApproxTBC.mape(t.value, exact) / Trials
          }
          (ms, err)
        }
        Seq(f"$p%.1f") ++ cells.map(c => f"${c._1}%.1f") :+ f"${cells.last._2 * 100}%.1f%%"
      }
      Eval.printTimingTable(
        Seq("p", "ApproxTBC(ms)", "ApproxTBC+(ms)", "ApproxTBC++(ms)", "MAPE"), rows, out)
      out("")
    }
  }

  def sgrappSweep(keys: Seq[String], out: String => Unit = println): Unit = {
    for (key <- keys) {
      val spec = Datasets.byKey(key)
      val edges = Eval.edgesOf(spec)
      val exact = LocalAlgos.tbcPlusPlus(Eval.graphOf(spec), delta)
      out(s"== $key: sGrappTBC over N_t^W ==")
      val rows = Seq(50, 100, 200, 400).map { nTW =>
        val theta = SGrappTBC.calibrate(edges, delta, nTW, calibWindows = 3)
        val cells = Variant.all.map { v =>
          val t = Eval.time(SGrappTBC.estimate(edges, delta, nTW, theta, variant = v))
          (t.millis, ApproxTBC.mape(t.value.perType, exact))
        }
        Seq(nTW.toString) ++ cells.map(c => f"${c._1}%.1f") :+ f"${cells.last._2 * 100}%.1f%%"
      }
      Eval.printTimingTable(
        Seq("N_t^W", "sGrappTBC(ms)", "sGrappTBC+(ms)", "sGrappTBC++(ms)", "MAPE"), rows, out)
      out("")
    }
  }
}
