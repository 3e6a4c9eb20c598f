package repro.stream

import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

import repro.graph.TemporalEdge
import repro.util.LongBuf

/** Mutable temporal bipartite graph for the stream setting (§ 5).
  *
  * Edges arrive in chronological order (the graph-stream assumption of the
  * paper, § 6 "we assume that edges arrive in chronological order") and are
  * deleted oldest-first by the sliding window. Each vertex keeps its
  * incident edges in a time-sorted [[LongBuf]] queue, so:
  *
  *   - insertion is an O(1) append (timestamps only grow),
  *   - deleting the globally-oldest edge is an O(1) head bump,
  *   - range queries `[lo, hi]` binary-search the live span — the
  *     "store E(u) in a queue ... use binary search to compress the
  *     traversal range" engineering of Algorithm 7.
  *
  * Every vertex gets a dense slot the first time it appears, from one id
  * map per layer, so any `Long` id of either layer is accepted. The queues
  * hold neighbour slots, and the slots of both layers are distinct.
  */
final class StreamGraph {

  private val uppers = mutable.HashMap.empty[Long, Int]
  private val lowers = mutable.HashMap.empty[Long, Int]
  private val nbrs  = ArrayBuffer.empty[LongBuf] // neighbour slots
  private val times = ArrayBuffer.empty[LongBuf] // parallel timestamps
  private var taken = new Array[Int](0)           // slot -> batch edges `delete` has checked; zero between calls

  /** Slot of upper vertex `u`, or -1 if it has never been seen. */
  def upperSlot(u: Long): Int = uppers.getOrElse(u, -1)

  /** Slot of lower vertex `v`, or -1 if it has never been seen. */
  def lowerSlot(v: Long): Int = lowers.getOrElse(v, -1)

  private def ensure(ids: mutable.HashMap[Long, Int], id: Long): Int =
    ids.getOrElseUpdate(id, { nbrs += new LongBuf; times += new LongBuf; nbrs.length - 1 })

  /** Number of live edges incident to slot `s`. */
  def liveDegree(s: Int): Int = if (s < 0) 0 else nbrs(s).length

  /** Total number of live edges. */
  def numEdges: Long = {
    var total = 0L
    var s = 0
    while (s < nbrs.length) { total += liveDegree(s); s += 1 }
    total / 2
  }

  private def newest(s: Int): Long = if (s < 0 || times(s).isEmpty) Long.MinValue else times(s).last

  /** Insert one edge, as a batch of one. */
  def insert(e: TemporalEdge): Unit = insert(e :: Nil)

  /** Insert a batch in time order; no edge may precede an edge already
    * incident to either endpoint. The batch is checked whole before any
    * change, so a rejected batch changes nothing.
    */
  def insert(batch: Seq[TemporalEdge]): Unit = {
    var prev = Long.MinValue
    batch.foreach { e =>
      val last = math.max(prev, math.max(newest(upperSlot(e.u)), newest(lowerSlot(e.v))))
      require(e.t >= last, s"stream graph requires chronological insertion (got $e after time $last)")
      prev = e.t
    }
    batch.foreach { e =>
      val a = ensure(uppers, e.u)
      val b = ensure(lowers, e.v)
      nbrs(a) += b; times(a) += e.t
      nbrs(b) += a; times(b) += e.t
    }
  }

  /** Delete one edge in O(1), as a batch of one. */
  def delete(e: TemporalEdge): Unit = delete(e :: Nil)

  /** Delete a batch, each edge in O(1). Each edge must be the oldest live
    * edge of both endpoints once the earlier ones are gone, as it is when
    * edges expire in arrival order. The batch is checked whole before any
    * change, so a rejected batch changes nothing.
    */
  def delete(batch: Seq[TemporalEdge]): Unit = {
    if (taken.length < nbrs.length) taken = new Array[Int](2 * nbrs.length)
    def holds(s: Int, nbr: Int, t: Long) =
      s >= 0 && taken(s) < nbrs(s).length && nbrs(s)(taken(s)) == nbr && times(s)(taken(s)) == t
    val bad = batch.find { e =>
      val a = upperSlot(e.u); val b = lowerSlot(e.v)
      val ok = holds(a, b, e.t) && holds(b, a, e.t)
      if (ok) { taken(a) += 1; taken(b) += 1 }
      !ok
    }
    // Drop each edge unless the batch is rejected, and zero `taken` again either way.
    def settle(s: Int): Unit = if (s >= 0) {
      if (bad.isEmpty) { nbrs(s).dropFront(1); times(s).dropFront(1) }
      taken(s) = 0
    }
    batch.foreach { e => settle(upperSlot(e.u)); settle(lowerSlot(e.v)) }
    require(bad.isEmpty, s"stream graph deletes only the oldest live edge of both endpoints (got ${bad.get})")
  }

  /** Visit live incident edges of slot `s` with timestamp in the interval
    * bounded by `lo`/`hi` (each strict or inclusive), in time order, as
    * (neighbour slot, time).
    */
  def foreachInRange(s: Int, lo: Long, loStrict: Boolean, hi: Long, hiStrict: Boolean)(
      f: (Int, Long) => Unit): Unit = {
    if (s < 0) return
    val nb = nbrs(s); val ts = times(s)
    var i = ts.rank(lo, inclusive = loStrict)
    val end = ts.rank(hi, inclusive = !hiStrict, from = i)
    while (i < end) { f(nb(i).toInt, ts(i)); i += 1 }
  }
}
