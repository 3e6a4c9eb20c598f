package repro.jobs

import repro.eval.Eval

/** Figure 11-style overall performance: wall time of TBC / TBC+ / TBC++
  * and TBE / TBE+ per dataset at delta = 40 days, with a TLE cap, and the
  * total count.
  *
  * spark-submit --class repro.jobs.OverallPerfJob <jar> [limitMs]
  */
object OverallPerfJob {
  def main(args: Array[String]): Unit = {
    val limitMs = JobArgs.limit(args.toSeq, 0, "limitMs", 60000L)
    Eval.overallPerf(_ => limitMs)
  }
}
