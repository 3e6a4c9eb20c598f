package repro.perfbench

import java.lang.management.ManagementFactory
import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer
import scala.util.control.NonFatal

import repro.core.BenchTimeout

/** One reported number. */
final case class Metric(value: Double, unit: String)

/** Ordered metric table of one run. */
final class Metrics {
  val table = mutable.LinkedHashMap.empty[String, Metric]
  def update(name: String, valueAndUnit: (Double, String)): Unit = {
    require(!table.contains(name), s"metric $name reported twice")
    table(name) = Metric(valueAndUnit._1, valueAndUnit._2)
  }
}

/** Counts operations and failures. An operation fails when it throws, runs
  * past its deadline, or returns counts that differ from the reference.
  */
final class Checker {
  var attempted = 0L
  var failed = 0L
  val problems = ArrayBuffer.empty[String]

  def check(label: String, ok: Boolean): Boolean = synchronized {
    attempted += 1
    if (!ok) { failed += 1; if (problems.length < 20) problems += label }
    ok
  }

  def sameCounts(label: String, expected: Seq[Long], got: Seq[Long]): Boolean =
    check(s"$label: expected ${expected.mkString("[", ",", "]")} got ${got.mkString("[", ",", "]")}",
      expected == got)

  /** Run `f`; a throw (including [[BenchTimeout]]) is one failed operation. */
  def attempt[A](label: String)(f: => A): Option[A] =
    try Some(f)
    catch {
      case e: BenchTimeout => check(s"$label: timed out", ok = false); None
      case NonFatal(e) => check(s"$label: $e", ok = false); None
    }
}

/** Samples behind the reported numbers, kept for the result file. */
final class SampleLog {
  val series = mutable.LinkedHashMap.empty[String, ArrayBuffer[Double]]
  def add(name: String, x: Double): Unit = series.getOrElseUpdate(name, ArrayBuffer.empty) += x
  def apply(name: String): Seq[Double] = series.getOrElse(name, ArrayBuffer.empty).toSeq

  /** Record when a phase of the run ended, in seconds since the JVM started. */
  def phase(name: String): Unit =
    add(s"phase.$name", ManagementFactory.getRuntimeMXBean.getUptime / 1e3)
}

/** Clocks read by the benchmark. */
object Clock {
  private val threads =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  private val os =
    ManagementFactory.getOperatingSystemMXBean.asInstanceOf[com.sun.management.OperatingSystemMXBean]

  def nanos(): Long = System.nanoTime()

  /** Bytes allocated so far by the calling thread. */
  def allocated(): Long = threads.getCurrentThreadAllocatedBytes

  /** CPU time of the whole process, in nanoseconds. */
  def processCpu(): Long = os.getProcessCpuTime
}
