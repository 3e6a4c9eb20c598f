package repro.jobs

import repro.eval.Eval
import repro.graph.Datasets

/** Figure 13/14/16-style sweep of the duration constraint delta: wall time
  * and per-type counts for delta in {10, 20, 40, 80, 160} days.
  *
  * spark-submit --class repro.jobs.DeltaSweepJob <jar> [datasetKeys...]
  */
object DeltaSweepJob {
  def main(args: Array[String]): Unit = {
    val keys = if (args.nonEmpty) args.toSeq else Seq("WN", "CU", "EP")
    val limitMs = 60000L
    val algos = Eval.CountingAlgos ++ Eval.EnumAlgos
    for (key <- keys) {
      val spec = Datasets.byKey(key)
      println(s"== $key ==")
      val rows = Seq(10L, 20L, 40L, 80L, 160L).map { d =>
        val delta = d * 86400L
        val r = Eval.perfRow(spec, delta, limitMs, algos)
        val counts = Eval.table4Row(spec, delta)
        Seq(s"${d}d") ++ r.results.map { case (_, res) => Eval.fmtMs(res) } ++
          Seq(counts.counts.sum.toString)
      }
      Eval.printTimingTable(Seq("delta") ++ algos.map(_._1 + "(ms)") ++ Seq("total"), rows)
      println()
    }
  }
}
