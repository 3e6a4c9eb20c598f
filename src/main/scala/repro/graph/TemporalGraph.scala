package repro.graph

import scala.collection.mutable

/** One undirected temporal edge of a bipartite graph.
  *
  * `u` is the upper-layer vertex id, `v` the lower-layer vertex id, `t` the
  * timestamp (seconds). Multiple edges may connect the same (u, v) pair at
  * different times — that is the defining complication of the temporal
  * setting (§ 2 of the paper).
  */
final case class TemporalEdge(u: Long, v: Long, t: Long)

/** Dense in-memory temporal bipartite graph used by the local (single-JVM)
  * algorithm drivers and the streaming substrate.
  *
  * Vertices are re-indexed to `[0, n)`: upper-layer vertices first, then
  * lower-layer ones. `pri` holds the paper's vertex priority (Definition 4):
  * a dense rank by (|E(u)|, tie-broken by original id), larger rank = higher
  * priority. Priority ties never occur because the rank is a total order.
  */
final class LocalGraph(
    val n: Int,
    val nUpper: Int,
    val layer: Array[Byte],        // 0 = upper (U), 1 = lower (L)
    val adjN: Array[Array[Int]],   // neighbor dense ids, per vertex
    val adjT: Array[Array[Long]],  // parallel timestamps, per vertex
    val pri: Array[Int],           // vertex priority rank; higher = higher priority
    val origId: Array[Long],       // original id within the vertex's own layer
) {
  def degree(v: Int): Int = adjN(v).length
  def numEdges: Long = adjN.iterator.map(_.length.toLong).sum / 2
}

object LocalGraph {

  /** Build a [[LocalGraph]] from an edge list, deterministically; ids are dense `Int`s. */
  def fromEdges(edges: Seq[TemporalEdge]): LocalGraph = {
    val upperIds = mutable.LinkedHashMap.empty[Long, Int]
    val lowerIds = mutable.LinkedHashMap.empty[Long, Int]
    edges.foreach { e =>
      if (!upperIds.contains(e.u)) upperIds(e.u) = upperIds.size
      if (!lowerIds.contains(e.v)) lowerIds(e.v) = lowerIds.size
    }
    val nU = upperIds.size
    val count = nU.toLong + lowerIds.size
    require(count <= Int.MaxValue, s"LocalGraph: $count distinct vertices exceed the ${Int.MaxValue} dense Int ids")
    val n  = count.toInt

    val deg = new Array[Int](n)
    edges.foreach { e =>
      deg(upperIds(e.u)) += 1
      deg(nU + lowerIds(e.v)) += 1
    }

    val adjN = Array.tabulate(n)(i => new Array[Int](deg(i)))
    val adjT = Array.tabulate(n)(i => new Array[Long](deg(i)))
    val fill = new Array[Int](n)
    edges.foreach { e =>
      val a = upperIds(e.u); val b = nU + lowerIds(e.v)
      adjN(a)(fill(a)) = b; adjT(a)(fill(a)) = e.t; fill(a) += 1
      adjN(b)(fill(b)) = a; adjT(b)(fill(b)) = e.t; fill(b) += 1
    }

    val layer  = Array.tabulate(n)(i => if (i < nU) 0.toByte else 1.toByte)
    val origId = new Array[Long](n)
    upperIds.foreach { case (orig, i) => origId(i) = orig }
    lowerIds.foreach { case (orig, i) => origId(nU + i) = orig }

    // Vertex priority (Definition 4): total order by (|E(u)|, layer, origId).
    // Any deterministic tie-break yields correct counts; this one is stable
    // across runs and independent of edge-list order.
    val order = (0 until n).sortBy(i => (deg(i), layer(i).toInt, origId(i)))
    val pri = new Array[Int](n)
    order.zipWithIndex.foreach { case (v, rank) => pri(v) = rank }

    new LocalGraph(n, nU, layer, adjN, adjT, pri, origId)
  }
}
