package repro.jobs

import repro.eval.Eval

/** Figure 13/14/16-style sweep of the duration constraint delta: wall time
  * and per-type counts for delta in {10, 20, 40, 80, 160} days.
  *
  * spark-submit --class repro.jobs.DeltaSweepJob <jar> [datasetKeys...]
  */
object DeltaSweepJob {
  def main(args: Array[String]): Unit = {
    val keys = JobArgs.datasetKeys(args.toSeq, "WN", "CU", "EP")
    keys.foreach(Eval.deltaSweep(_, limitMs = 60000L))
  }
}
