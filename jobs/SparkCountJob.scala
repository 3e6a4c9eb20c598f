package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.core.Variant
import repro.eval.Eval
import repro.graph.Datasets
import repro.sparkdist.SparkButterfly

/** Distributed temporal butterfly counting via the Spark pipeline.
  *
  * spark-submit --class repro.jobs.SparkCountJob <jar> [dataset] [deltaDays] [variant]
  */
object SparkCountJob {
  def main(args: Array[String]): Unit = {
    val spec = Datasets.byKey(args.lift(0).getOrElse("WN"))
    val deltaDays = JobArgs.long(args.toSeq, 1, "deltaDays", 40L)
    val delta = Datasets.deltaSecondsOfDays(deltaDays)
    val name = args.lift(2).getOrElse("plusplus")
    val variant = Variant.all.find(_.name == name).getOrElse(throw new IllegalArgumentException(
      s"unknown variant '$name'; expected one of ${Variant.all.map(_.name).mkString(", ")}"))
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(s"tbfc-${spec.key}")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    try {
      val edges = Eval.edgesOf(spec)
      val df = SparkButterfly.edgesToDF(spark, edges)
      val t = Eval.time(SparkButterfly.count(df, delta, variant))
      println(s"dataset=${spec.key} |E|=${edges.length} delta=${deltaDays}d variant=${variant.name}")
      println((0 until 6).map(i => s"T$i=${t.value(i)}").mkString(" "))
      println(f"total=${t.value.sum} time=${t.millis}%.1f ms")
    } finally spark.stop()
  }
}
