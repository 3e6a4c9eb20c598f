package repro.jobs

import repro.eval.Eval
import repro.graph.Datasets

/** Reproduces Table 4 (distribution of counts per temporal butterfly type
  * at delta = 40 days) over the 11 scaled synthetic datasets.
  *
  * spark-submit --class repro.jobs.Table4Job <jar> [deltaDays]
  */
object Table4Job {
  def main(args: Array[String]): Unit = {
    val deltaDays = JobArgs.long(args.toSeq, 0, "deltaDays", 40L)
    Eval.table4(Datasets.deltaSecondsOfDays(deltaDays))
  }
}
