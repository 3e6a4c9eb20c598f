package repro.perfbench

import java.io.{File, PrintWriter}
import java.lang.management.ManagementFactory
import scala.jdk.CollectionConverters._

/** Entry point:
  * {{{
  *   Main --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <file>
  * }}}
  * Prints a readable report on stderr, writes the full result (metrics,
  * samples, environment) to `--out`, and prints the result line last on
  * stdout: `{"correct", "attempted", "failed", "metrics"}`.
  */
object Main {

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def opt(name: String): String =
      opts.getOrElse(name, throw new IllegalArgumentException(s"missing --$name"))
    val w = Workloads.byName(opt("workload"))
    val seed = opt("seed").toLong
    val seconds = opt("seconds").toDouble
    val trace = opt("trace") match {
      case "0" => false
      case "1" => true
      case t => throw new IllegalArgumentException(s"--trace must be 0 or 1, got $t")
    }
    val out = new File(opt("out"))
    val k = math.min(4, Runtime.getRuntime.availableProcessors)

    val chk = new Checker
    val log = new SampleLog
    val in = new Inputs(w, seed)
    val refs = new References(in, seed, chk)
    val spark = new Sparks.Holder(k, out.getAbsoluteFile.getParentFile)
    val (metrics, invalid) =
      try {
        if (trace) (Traced.run(in, refs, k, spark, chk), None)
        else (Untraced.run(in, refs, seconds, k, chk, log), None)
      } catch {
        case e: Traced.ReplayMismatch =>
          chk.check(s"replay check: ${e.getMessage}", ok = false)
          (new Metrics, Some(e.getMessage))
      } finally spark.stop()

    val env = environment(w, seed, seconds, trace, k)
    val correct = chk.failed == 0 && invalid.isEmpty
    val metricsJson = Json.obj(metrics.table.toSeq.map { case (name, m) =>
      name -> Json.obj(Seq("value" -> Json.num(m.value), "unit" -> Json.str(m.unit)))
    })
    val resultLine = Json.obj(Seq(
      "correct" -> correct.toString,
      "attempted" -> chk.attempted.toString,
      "failed" -> chk.failed.toString,
      "metrics" -> metricsJson))

    val err = System.err
    err.println(s"== ${w.name} seed=$seed trace=${if (trace) 1 else 0} k=$k ==")
    metrics.table.foreach { case (name, m) =>
      val xs = log(name.stripSuffix("_p50"))
      val samples =
        if (xs.isEmpty) ""
        else {
          val (q1, _, q3) = Stats.quartiles(xs)
          f"  (n=${xs.length}, quartiles $q1%.6g .. $q3%.6g)"
        }
      val unscaled = log(s"unscaled.$name").headOption.fold("")(u => f"  (unscaled $u%.6g)")
      err.println(f"  $name%-40s ${m.value}%14.6f ${m.unit}%-6s$samples$unscaled")
    }
    if (log("reference_ms").nonEmpty) {
      val (q1, med, q3) = Stats.quartiles(log("reference_ms"))
      err.println(f"  ${"reference_ms"}%-40s $med%14.6f ms      (n=${log("reference_ms").length}, quartiles $q1%.6g .. $q3%.6g; timed metrics are scaled to ${Reference.NominalMs}%.0f ms)")
    }
    err.println(f"  ${"error_rate"}%-40s ${chk.failed.toDouble / math.max(1L, chk.attempted)}%14.6f ratio   (${chk.failed} of ${chk.attempted})")
    // Figures not in the result line, because their run-to-run spread is
    // wider than any bound the result could carry.
    if (log("tbcp_alloc_mb").nonEmpty)
      err.println(f"  ${"tbcp_alloc_mb"}%-40s ${Stats.median(log("tbcp_alloc_mb"))}%14.6f MB      (not a metric)")
    log.series.foreach { case (name, xs) =>
      if (name.endsWith("_slide_ms") && !name.startsWith("raw.") && Stats.samplesBeyond(xs.length, 95) >= Stats.MinTailSamples) {
        if (!metrics.table.contains(name + "_p50"))
          err.println(f"  ${name + "_p50"}%-40s ${Stats.median(xs.toSeq)}%14.6f ms      (n=${xs.length}, not a metric)")
        err.println(f"  ${name + "_p95"}%-40s ${Stats.tailPercentile(xs.toSeq, 95)}%14.6f ms      (n=${xs.length}, not a metric)")
      }
    }
    chk.problems.foreach(p => err.println(s"  FAILED: $p"))
    invalid.foreach(msg => err.println(s"  per-layer metrics invalid: $msg"))
    err.println(s"  env: $env")

    val pw = new PrintWriter(out, "UTF-8")
    try pw.println(Json.obj(Seq(
      "result" -> resultLine,
      "error_rate" -> Json.num(chk.failed.toDouble / math.max(1L, chk.attempted)),
      "problems" -> Json.arr(chk.problems.toSeq.map(Json.str)),
      "reference_counts" -> Json.obj(refs.computed.toSeq.map { case (key, c) => key -> Json.arr(c.map(_.toString)) }),
      "environment" -> env,
      "samples" -> Json.obj(log.series.toSeq.map { case (name, xs) => name -> Json.arr(xs.toSeq.map(Json.num)) }))))
    finally pw.close()

    println(resultLine)
  }

  /** What a result depends on besides the code: machine, JVM and Spark
    * settings, seed. The commit and source hash come from the launcher.
    */
  private def environment(w: Workload, seed: Long, seconds: Double, trace: Boolean, k: Int): String = {
    val rt = ManagementFactory.getRuntimeMXBean
    Json.obj(Seq(
      "workload" -> Json.str(w.name),
      "seed" -> seed.toString,
      "seconds" -> Json.num(seconds),
      "trace" -> (if (trace) "1" else "0"),
      "nproc" -> Runtime.getRuntime.availableProcessors.toString,
      "k" -> k.toString,
      "jvm" -> Json.str(s"${System.getProperty("java.vm.name")} ${System.getProperty("java.runtime.version")}"),
      "jvm_flags" -> Json.arr(rt.getInputArguments.asScala.toSeq.map(Json.str)),
      "max_heap_mb" -> (Runtime.getRuntime.maxMemory / (1L << 20)).toString,
      "gc" -> Json.arr(ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq.map(b => Json.str(b.getName))),
      "spark" -> Json.obj(Sparks.conf(k).map { case (key, v) => key -> Json.str(v) }),
      "commit" -> Json.str(System.getProperty("perfbench.commit", "unknown")),
      "source_sha256" -> Json.str(System.getProperty("perfbench.sources", "unknown")),
    ))
  }
}
