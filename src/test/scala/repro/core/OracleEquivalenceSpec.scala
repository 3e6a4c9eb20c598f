package repro.core

import repro.{Oracle, SparkSpec, TestUtil}
import repro.graph.TemporalEdge
import repro.sparkdist.SparkButterfly

/** End-to-end result-equality against DuckDB: the SQL oracle enumerates
  * every temporal butterfly by 4-way self-join and classifies it with the
  * same direction/coverage rules, fully independently of the Scala
  * implementations.
  */
class OracleEquivalenceSpec extends SparkSpec {

  private def countsToDF(c: Array[Long]) = {
    val s = spark
    import s.implicits._
    c.zipWithIndex.map { case (n, i) => (i, n) }.toSeq.toDF("btype", "cnt")
  }

  private def edgesDF(edges: Seq[TemporalEdge]) = SparkButterfly.edgesToDF(spark, edges)

  private def checkLocal(edges: Seq[TemporalEdge], delta: Long): Unit = {
    val g = repro.graph.LocalGraph.fromEdges(edges)
    for (variant <- Variant.all) {
      val c = LocalAlgos.count(g, delta, variant)
      Oracle.assertEquivalent(countsToDF(c), OracleSql.countByType(delta), "edges" -> edgesDF(edges))
    }
  }

  for ((name, stamps) <- Seq(
      ("T0", (1L, 2L, 3L, 4L)), ("T2", (1L, 4L, 2L, 3L)), ("T5", (1L, 4L, 3L, 2L))))
    test(s"DuckDB agrees on a single $name butterfly") {
      checkLocal(TestUtil.singleButterfly(stamps._1, stamps._2, stamps._3, stamps._4), 100)
    }

  for (seed <- 1 to 5)
    test(s"DuckDB agrees with all local variants on random graph (seed $seed)") {
      checkLocal(TestUtil.randomEdges(seed, 4, 5, 80, 60), 30)
    }

  for (seed <- 6 to 8)
    test(s"DuckDB agrees under heavy timestamp collisions (seed $seed)") {
      checkLocal(TestUtil.randomEdges(seed, 3, 4, 70, 8), 8)
    }

  for (seed <- 1 to 3)
    test(s"DuckDB agrees with the Spark pipeline (seed $seed)") {
      val edges = TestUtil.randomEdges(seed * 17, 4, 4, 70, 50)
      val df = edgesDF(edges)
      for (variant <- Variant.all) {
        val sparkCounts = countsToDF(SparkButterfly.count(df, 25, variant))
        Oracle.assertEquivalent(sparkCounts, OracleSql.countByType(25), "edges" -> df)
      }
    }

  test("DuckDB agrees on the delta boundary") {
    checkLocal(TestUtil.singleButterfly(1, 2, 3, 11), 10)
    checkLocal(TestUtil.singleButterfly(1, 2, 3, 12), 10)
  }
}
