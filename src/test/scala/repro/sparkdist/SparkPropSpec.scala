package repro.sparkdist

import org.scalacheck.Gen
import org.scalacheck.rng.Seed

import repro.{SparkSpec, TestUtil}
import repro.core.{AlgoProps, BruteForce, Variant}

/** `SparkButterfly.count` against `BruteForce` on a few draws of the
  * property generators (extreme timestamps and ids, hubs, runs of equal
  * timestamps, δ up to `Long.MaxValue`). Each draw costs Spark jobs, so the
  * sample is a few fixed seeds rather than a full ScalaCheck run: 1 to 5,
  * whose ids lie near 0, and 7 and 11, whose ids sit at the top and the
  * bottom of the `Long` range.
  */
class SparkPropSpec extends SparkSpec {

  for (seed <- (1L to 5L) ++ Seq(7L, 11L))
    test(s"spark count == brute force on a generated graph (seed $seed)") {
      val draw = Gen.zip(AlgoProps.genEdges, AlgoProps.genDelta)
      val (edges, delta) = draw.pureApply(Gen.Parameters.default, Seed(seed))
      val expected = BruteForce.countByType(edges, delta)
      val df = SparkButterfly.edgesToDF(spark, edges)
      for (variant <- Variant.all)
        TestUtil.assertCountsEqual(expected, SparkButterfly.count(df, delta, variant),
          s"${edges.length} edges, delta = $delta, ${variant.name}")
    }
}
