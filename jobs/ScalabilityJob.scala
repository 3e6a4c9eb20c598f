package repro.jobs

import repro.eval.Eval

/** Figure 15-style scalability: wall time over random edge subsets of
  * {20, 40, 60, 80, 100}% for each counting variant.
  *
  * spark-submit --class repro.jobs.ScalabilityJob <jar> [datasetKeys...]
  */
object ScalabilityJob {
  def main(args: Array[String]): Unit = {
    val keys = JobArgs.datasetKeys(args.toSeq, "CU", "EP")
    keys.foreach(Eval.scalability(_, limitMs = 60000L, reps = 3, seed = 7))
  }
}
