package repro.jobs

import repro.eval.Eval
import repro.graph.Datasets

/** Figure 11-style overall performance: wall time of TBC / TBC+ / TBC++
  * and TBE / TBE+ per dataset at delta = 40 days, with a TLE cap.
  *
  * spark-submit --class repro.jobs.OverallPerfJob <jar> [limitMs]
  */
object OverallPerfJob {
  def main(args: Array[String]): Unit = {
    val limitMs = args.headOption.map(_.toLong).getOrElse(60000L)
    val delta = Datasets.DefaultDeltaSeconds
    val algos = Eval.CountingAlgos ++ Eval.EnumAlgos
    val rows = Datasets.all.map { spec =>
      val r = Eval.perfRow(spec, delta, limitMs, algos)
      Seq(spec.key) ++ r.results.map { case (_, res) => Eval.fmtMs(res) }
    }
    Eval.printTimingTable(Seq("Dataset") ++ algos.map(_._1 + "(ms)"), rows)
  }
}
