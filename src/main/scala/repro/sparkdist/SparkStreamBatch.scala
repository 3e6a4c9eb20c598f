package repro.sparkdist

import org.apache.spark.sql.SparkSession

import repro.core.ButterflyType.addCounts
import repro.graph.TemporalEdge
import repro.stream.{STBCPlus, StreamGraph}

/** Distributed-dataflow flavour of STBC+ batch updates: the paper's
  * multi-core batch counting (Algorithm 8) re-expressed on Spark.
  *
  * The live window snapshot is broadcast; batch edges are spread across a
  * Dataset, each partition rebuilds the read-only adjacency once and charges
  * every batch edge exactly the butterflies for which it holds the extreme
  * timestamp (Lemma 8), so partial counts sum without conflicts — the same
  * conflict-freedom that lets the paper's threads share nothing.
  *
  * This complements (not replaces) the in-process [[STBCPlus]]: a thread
  * pool is the faithful reproduction of the paper's setup; this variant
  * exists for window sizes that outgrow one machine.
  */
object SparkStreamBatch {

  /** Per-type counts of butterflies whose extreme-timestamp edge lies in
    * `batch`. `windowEdges` must contain every live edge (including the
    * batch itself), chronologically sorted.
    */
  def countBatch(
      spark: SparkSession,
      windowEdges: IndexedSeq[TemporalEdge],
      batch: Seq[TemporalEdge],
      delta: Long,
      asMin: Boolean): Array[Long] = {
    import spark.implicits._
    if (batch.isEmpty) return new Array[Long](6)
    val bc = spark.sparkContext.broadcast(windowEdges)
    try {
      val partials = spark.createDataset(batch.toSeq)
        .repartition(math.min(batch.size, spark.sparkContext.defaultParallelism))
        .mapPartitions { it =>
          val g = new StreamGraph
          bc.value.foreach(g.insert)
          val local = new Array[Long](6)
          it.foreach(e => addCounts(local, STBCPlus.countExtreme(g, e, delta, asMin)))
          Iterator.single(local)
        }
        .collect()
      val total = new Array[Long](6)
      partials.foreach(addCounts(total, _))
      total
    } finally bc.destroy()
  }
}
