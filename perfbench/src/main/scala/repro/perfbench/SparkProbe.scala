package repro.perfbench

import java.io.File
import scala.collection.mutable.ArrayBuffer

import org.apache.spark.ListenerDrain
import org.apache.spark.scheduler.{SparkListener, SparkListenerStageCompleted, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession

/** The benchmark's Spark session: `local[k]`, no broadcast joins (so the
  * joins shuffle, as in the test suite), adaptive execution off (so stage
  * and task counts repeat exactly), and every Spark file inside `workDir`.
  */
object Sparks {

  def conf(k: Int): Seq[(String, String)] = Seq(
    "spark.master" -> s"local[$k]",
    "spark.sql.shuffle.partitions" -> (2 * k).toString,
    "spark.sql.adaptive.enabled" -> "false",
    "spark.sql.codegen.wholeStage" -> "false",
    "spark.sql.autoBroadcastJoinThreshold" -> "-1",
    "spark.ui.enabled" -> "false",
    "spark.driver.host" -> "127.0.0.1",
  )

  private def start(k: Int, workDir: File): SparkSession = {
    val b = SparkSession.builder.appName("perfbench")
      .config("spark.local.dir", new File(workDir, "spark-local").getAbsolutePath)
      .config("spark.sql.warehouse.dir", new File(workDir, "spark-warehouse").getAbsolutePath)
    conf(k).foldLeft(b) { case (b, (key, v)) => b.config(key, v) }.getOrCreate()
  }

  /** Starts the session on first use, from any thread; stops it if started. */
  final class Holder(k: Int, workDir: File) {
    private var session: SparkSession = null
    def get: SparkSession = synchronized {
      if (session == null) session = start(k, workDir)
      session
    }
    def stop(): Unit = synchronized { if (session != null) session.stop() }
  }
}

/** Stage and task records of the jobs run while the probe is attached. */
object SparkProbe {
  final case class StageRec(id: Int, numTasks: Int, span: Span, isCombine: Boolean)
  final case class TaskRec(stageId: Int, runMs: Long, cpuNs: Long, gcMs: Long,
                           shuffleWriteBytes: Long, shuffleReadBytes: Long)
}

final class SparkProbe extends SparkListener {
  import SparkProbe._

  val stages = ArrayBuffer.empty[StageRec]
  val tasks = ArrayBuffer.empty[TaskRec]

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    val i = e.stageInfo
    stages += StageRec(i.stageId, i.numTasks,
      Span(i.submissionTime.getOrElse(0L), i.completionTime.getOrElse(0L)),
      ListenerDrain.scopeNames(i).exists(_.contains("MapGroups")))
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val m = e.taskMetrics
    if (m != null)
      tasks += TaskRec(e.stageId, m.executorRunTime, m.executorCpuTime,
        m.jvmGCTime, m.shuffleWriteMetrics.bytesWritten, m.shuffleReadMetrics.totalBytesRead)
  }

  /** Run `f` with the probe attached; returns its value, wall interval
    * (epoch ms, the clock Spark stamps stages with) and the records.
    */
  def around[A](spark: SparkSession)(f: => A): (A, Span) = {
    val sc = spark.sparkContext
    ListenerDrain(sc)
    synchronized { stages.clear(); tasks.clear() }
    sc.addSparkListener(this)
    try {
      val t0 = System.currentTimeMillis()
      val v = f
      val t1 = System.currentTimeMillis()
      ListenerDrain(sc)
      (v, Span(t0, t1))
    } finally sc.removeSparkListener(this)
  }
}
