package repro.sparkdist

import org.apache.spark.sql.{Column, DataFrame, Dataset, Encoder, SparkSession}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import scala.collection.mutable.ArrayBuffer

import repro.core.{Instance, LocalCombine, SetCross, Variant}
import repro.core.ButterflyType.addCounts
import repro.graph.TemporalEdge
import repro.util.Sat

/** Distributed temporal butterfly counting/enumeration on Spark DataFrames.
  *
  * This is the repo's distributed-dataflow adaptation of the paper's
  * algorithms (the paper targets a single multi-core machine; the repro
  * band asks for an edge-partitioned join/aggregate formulation):
  *
  *   1. model the temporal bipartite graph as a DataFrame of edges
  *      `(u, v, t)`;
  *   2. compute the vertex priority of Definition 4 as the order on
  *      (|E(x)|, layer, id), each degree a window count over the half-edges
  *      — the rule `LocalGraph` ranks by, so both form the same wedges;
  *   3. enumerate wedges with one self-join restricted by priority — the
  *      distributed equivalent of Algorithm 2 lines 6–7, including the
  *      Lemma 1 pruning for the optimized variants;
  *   4. group wedges by (start-vertex, end-vertex) and run the paper's
  *      combine phase inside `flatMapGroups`: the same [[LocalCombine]]
  *      code as the local drivers, for every `variant`.
  *
  * A vertex is the struct `(layer, id)`, which Spark hashes and compares
  * field by field, so one join covers wedges starting from either layer and
  * any `Long` id of either layer is accepted.
  */
object SparkButterfly {

  /** A wedge `a-m-w` with original ids; `layer` is the layer of `a` and `w`. */
  final case class WedgeRow(layer: Int, a: Long, w: Long, m: Long, t1: Long, t2: Long)

  def edgesToDF(spark: SparkSession, edges: Seq[TemporalEdge]): DataFrame = {
    import spark.implicits._
    spark.createDataset(edges).toDF()
  }

  /** The wedge DataFrame: one row per temporal wedge whose start-vertex has
    * strictly higher priority than both its middle- and end-vertex.
    */
  def wedges(edges: DataFrame, delta: Long, prune: Boolean): Dataset[WedgeRow] = {
    Sat.requireDelta(delta)
    val spark = edges.sparkSession
    import spark.implicits._

    val u = struct(lit(0).as("layer"), $"u".as("id"))
    val v = struct(lit(1).as("layer"), $"v".as("id"))
    val he = edges
      .select(u.as("src"), v.as("dst"), $"t")
      .union(edges.select(v.as("src"), u.as("dst"), $"t"))

    // Vertex priority (Definition 4) is the order on (degree, layer, id). The half-edges are
    // symmetric, so window counts give both endpoints' degrees. Both legs of a wedge
    // a-m-w leave m, and the self-join keys on `src`, which the last window partitioned.
    val degree = org.apache.spark.sql.functions.count(lit(1))
    val h = he
      .withColumn("ddst", degree.over(Window.partitionBy($"dst")))
      .withColumn("dsrc", degree.over(Window.partitionBy($"src")))

    def above(d1: Column, x1: Column, d2: Column, x2: Column): Column =
      d1 > d2 || (d1 === d2 && x1 > x2)
    val left = h.where(above($"ddst", $"dst", $"dsrc", $"src"))
      .select($"src".as("m"), $"dst".as("a"), $"ddst".as("da"), $"t".as("t1"))
    val right = h.select($"src".as("m2"), $"dst".as("w"), $"ddst".as("dw"), $"t".as("t2"))
    val joined = left
      .join(right, $"m" === $"m2" && above($"da", $"a", $"dw", $"w"))
      .select($"a.layer".as("layer"), $"a.id".as("a"), $"w.id".as("w"), $"m.id".as("m"), $"t1", $"t2")

    // Lemma 1 as `Sat.within` decides it: `hi - lo` would overflow for
    // timestamps 2^63 or more apart, and so would `lo + delta` near the top.
    val lo = least($"t1", $"t2")
    val hi = greatest($"t1", $"t2")
    val pruned =
      if (prune) joined.where($"t1" =!= $"t2" &&
        when(lo > lit(Long.MaxValue - delta), true).otherwise(hi <= lo + delta))
      else joined
    pruned.as[WedgeRow]
  }

  /** The group shell of `count` and `enumerate`: wedges keyed by (layer, a, w),
    * groups of fewer than two wedges skipped, the rest passed to `combine`.
    */
  private def combineGroups[T: Encoder](edges: DataFrame, delta: Long, variant: Variant)(
      combine: (Int, Long, Long, ArrayBuffer[(Long, Long, Long)]) => Iterator[T]): Dataset[T] = {
    val spark = edges.sparkSession
    import spark.implicits._
    wedges(edges, delta, prune = variant != Variant.Baseline)
      .groupByKey(r => (r.layer, r.a, r.w))
      .flatMapGroups { (key: (Int, Long, Long), it: Iterator[WedgeRow]) =>
        val buf = it.map(r => (r.m, r.t1, r.t2)).to(ArrayBuffer)
        if (buf.length < 2) Iterator.empty else combine(key._1, key._2, key._3, buf)
      }
  }

  /** Exact per-type counts, one slot per butterfly type: each partition
    * sums its groups' counts and the driver sums the partitions.
    */
  def count(edges: DataFrame, delta: Long, variant: Variant = Variant.PlusPlus): Array[Long] = {
    val spark = edges.sparkSession
    import spark.implicits._
    val out = new Array[Long](6)
    combineGroups(edges, delta, variant) { (layer, _, _, buf) =>
        val counts = new Array[Long](6)
        LocalCombine.count(buf, layer, delta, variant, counts)
        Iterator.single(counts)
      }
      .mapPartitions { it =>
        val part = new Array[Long](6)
        it.foreach(addCounts(part, _))
        Iterator.single(part)
      }
      .collect().foreach(addCounts(out, _))
    out
  }

  /** Distributed enumeration (TBE+ inside each group). */
  def enumerate(edges: DataFrame, delta: Long,
                variant: Variant = Variant.Plus): Dataset[Instance] = {
    val spark = edges.sparkSession
    import spark.implicits._
    combineGroups(edges, delta, variant) { (layer, a, w, buf) =>
      val out = new ArrayBuffer[Instance]()
      val sink = new SetCross.EnumSink {
        def emit(btype: Int, mid1: Long, s1: Long, a1: Long, mid2: Long, s2: Long, a2: Long): Unit =
          out += Instance.canonical(btype, layer, a, w, mid1, mid2, s1, a1, s2, a2)
      }
      LocalCombine.enumerate(buf, layer, delta, variant, sink)
      out.iterator
    }
  }
}
