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
  * algorithm drivers.
  *
  * Vertices are numbered `[0, n)` by the paper's vertex priority
  * (Definition 4): the rank in the order on (|E(u)|, layer, original id).
  * So a larger id is a higher priority, and priority ties never occur.
  */
final class LocalGraph(
    val n: Int,
    val layer: Array[Byte],        // 0 = upper (U), 1 = lower (L)
    val adjN: Array[Array[Int]],   // neighbor ids, per vertex
    val adjT: Array[Array[Long]],  // parallel timestamps, per vertex
    val origId: Array[Long],       // original id within the vertex's own layer
) {
  def degree(v: Int): Int = adjN(v).length
  /** Vertex priority rank: the id itself. */
  def pri(v: Int): Int = v
  def numEdges: Long = adjN.iterator.map(_.length.toLong).sum / 2
}

object LocalGraph {

  /** Build a [[LocalGraph]]; ids ignore the edge list's order, adjacency keeps it. */
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

    // First-seen slots, uppers before lowers, with their degrees and original ids.
    val deg = new Array[Int](n)
    edges.foreach { e =>
      deg(upperIds(e.u)) += 1
      deg(nU + lowerIds(e.v)) += 1
    }
    val slotOrig = (upperIds.keysIterator ++ lowerIds.keysIterator).toArray

    // Vertex priority (Definition 4): total order by (|E(u)|, layer, origId),
    // and a vertex's id is its rank in it. Any deterministic tie-break yields
    // correct counts; this one is stable across runs and edge-list orders.
    val slot = Array.range(0, n).sortBy(s => (deg(s), if (s < nU) 0 else 1, slotOrig(s))) // id -> slot
    val id = new Array[Int](n)
    slot.indices.foreach(v => id(slot(v)) = v)
    val layer  = Array.tabulate(n)(v => if (slot(v) < nU) 0.toByte else 1.toByte)
    val origId = Array.tabulate(n)(v => slotOrig(slot(v)))

    val adjN = Array.tabulate(n)(v => new Array[Int](deg(slot(v))))
    val adjT = Array.tabulate(n)(v => new Array[Long](deg(slot(v))))
    val fill = new Array[Int](n)
    edges.foreach { e =>
      val a = id(upperIds(e.u)); val b = id(nU + lowerIds(e.v))
      adjN(a)(fill(a)) = b; adjT(a)(fill(a)) = e.t; fill(a) += 1
      adjN(b)(fill(b)) = a; adjT(b)(fill(b)) = e.t; fill(b) += 1
    }

    new LocalGraph(n, layer, adjN, adjT, origId)
  }
}
