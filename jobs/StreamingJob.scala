package repro.jobs

import repro.eval.Eval
import repro.graph.Datasets
import repro.stream.SlidingWindow

/** Figure 18/19/20-style streaming evaluation: sliding-window counting
  * time for STBC vs STBC+ with varying window, stride and thread counts.
  *
  * spark-submit --class repro.jobs.StreamingJob <jar> [datasetKeys...]
  */
object StreamingJob {
  def main(args: Array[String]): Unit = {
    val keys = JobArgs.datasetKeys(args.toSeq, "LF", "WT")
    StreamingEval.varyingWindow(keys, maxSteps = 20)
    StreamingEval.varyingStride(keys, maxSteps = 20)
    StreamingEval.varyingThreads(keys, maxSteps = 20)
  }
}

/** Shared streaming sweeps (also driven by the bench suites). */
object StreamingEval {

  private val delta = Datasets.DefaultDeltaSeconds

  /** Time `maxSteps` slides of the given configuration. */
  def slideTime(key: String, window: Int, stride: Int, threads: Int, maxSteps: Int): Double = {
    val edges = Eval.edgesOf(Datasets.byKey(key))
    val capped = edges.take(math.min(edges.length, window + stride * maxSteps))
    Eval.time(SlidingWindow.run(capped, window, stride, delta, threads)).millis
  }

  def varyingWindow(keys: Seq[String], maxSteps: Int,
                    windows: Seq[Int] = Seq(1000, 2000, 5000, 10000),
                    out: String => Unit = println): Unit = {
    for (key <- keys) {
      out(s"== $key: varying |window| (stride = 5%) ==")
      val rows = windows.map { w =>
        val stride = math.max(1, w / 20)
        Seq(w.toString,
          f"${slideTime(key, w, stride, 0, maxSteps)}%.1f",
          f"${slideTime(key, w, stride, 1, maxSteps)}%.1f",
          f"${slideTime(key, w, stride, 4, maxSteps)}%.1f",
          f"${slideTime(key, w, stride, 8, maxSteps)}%.1f")
      }
      Eval.printTable(
        Seq("|window|", "STBC(ms)", "STBC+-1(ms)", "STBC+-4(ms)", "STBC+-8(ms)"), rows, out)
      out("")
    }
  }

  def varyingStride(keys: Seq[String], maxSteps: Int, window: Int = 5000,
                    out: String => Unit = println): Unit = {
    for (key <- keys) {
      out(s"== $key: varying |stride|/|window| (window = $window) ==")
      val rows = Seq(0.01, 0.02, 0.05, 0.10, 0.20).map { f =>
        val stride = math.max(1, (window * f).toInt)
        Seq(f"${(f * 100).toInt}%%",
          f"${slideTime(key, window, stride, 0, maxSteps)}%.1f",
          f"${slideTime(key, window, stride, 4, maxSteps)}%.1f")
      }
      Eval.printTable(Seq("stride", "STBC(ms)", "STBC+-4(ms)"), rows, out)
      out("")
    }
  }

  def varyingThreads(keys: Seq[String], maxSteps: Int, window: Int = 5000,
                     out: String => Unit = println): Unit = {
    val stride = math.max(1, window / 20)
    for (key <- keys) {
      out(s"== $key: varying |thread| (window = $window, stride = $stride) ==")
      val stbc = slideTime(key, window, stride, 0, maxSteps)
      val rows = Seq(1, 2, 4, 8, 16).map { th =>
        Seq(th.toString, f"$stbc%.1f",
          f"${slideTime(key, window, stride, th, maxSteps)}%.1f")
      }
      Eval.printTable(Seq("threads", "STBC(ms)", "STBC+(ms)"), rows, out)
      out("")
    }
  }
}
