package repro.jobs

import repro.core.Variant
import repro.eval.Eval
import repro.graph.Datasets

/** Figure 15-style scalability: wall time over random edge subsets of
  * {20, 40, 60, 80, 100}% for each counting variant.
  *
  * spark-submit --class repro.jobs.ScalabilityJob <jar> [datasetKeys...]
  */
object ScalabilityJob {
  def main(args: Array[String]): Unit = {
    val keys = if (args.nonEmpty) args.toSeq else Seq("CU", "EP")
    val limitMs = 60000L
    for (key <- keys) {
      val spec = Datasets.byKey(key)
      val edges = Eval.edgesOf(spec)
      println(s"== $key ==")
      val rows = Seq(0.2, 0.4, 0.6, 0.8, 1.0).map { f =>
        val cells = Variant.all.map { v =>
          Eval.scalabilityPoint(edges, f, Datasets.DefaultDeltaSeconds,
            limitMs, v, reps = 3, seed = 7) match {
            case Left(s) => s
            case Right(ms) => f"$ms%.1f"
          }
        }
        Seq(f"${(f * 100).toInt}%%") ++ cells
      }
      Eval.printTimingTable(Seq("|E| frac", "TBC(ms)", "TBC+(ms)", "TBC++(ms)"), rows)
      println()
    }
  }
}
