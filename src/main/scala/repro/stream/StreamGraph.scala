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
  * Vertices from both layers share one key space: upper `2u`, lower `2v+1`.
  * That folding is one-to-one only for ids in `[-2^62, 2^62)`, so
  * [[insert]] rejects any other id.
  */
final class StreamGraph {

  private val slotOf = mutable.HashMap.empty[Long, Int]
  private val nbrs  = ArrayBuffer.empty[LongBuf] // neighbor keys
  private val times = ArrayBuffer.empty[LongBuf] // parallel timestamps

  @inline def upperKey(u: Long): Long = u * 2
  @inline def lowerKey(v: Long): Long = v * 2 + 1

  /** Slot of a vertex key, or -1 if the vertex has never been seen. */
  def slot(key: Long): Int = slotOf.getOrElse(key, -1)

  private def ensure(key: Long): Int =
    slotOf.getOrElseUpdate(key, {
      nbrs += new LongBuf
      times += new LongBuf
      nbrs.length - 1
    })

  /** Number of live edges incident to slot `s`. */
  def liveDegree(s: Int): Int = if (s < 0) 0 else nbrs(s).length

  /** Total number of live edges. */
  def numEdges: Long = {
    var total = 0L
    var s = 0
    while (s < nbrs.length) { total += liveDegree(s); s += 1 }
    total / 2
  }

  private def append(s: Int, nk: Long, t: Long): Unit = {
    val ts = times(s)
    require(ts.isEmpty || t >= ts.last,
      s"stream graph requires chronological insertion (got $t after ${ts.last})")
    nbrs(s) += nk
    ts += t
  }

  private def foldable(id: Long): Boolean = id >= -(1L << 62) && id < (1L << 62)

  /** Insert one edge; `t` must not precede any edge already incident to
    * either endpoint, and both ids must lie in `[-2^62, 2^62)`.
    */
  def insert(e: TemporalEdge): Unit = {
    require(foldable(e.u) && foldable(e.v),
      s"stream graph ids must lie in [-2^62, 2^62) to fold into one key space (got $e)")
    val a = ensure(upperKey(e.u))
    val b = ensure(lowerKey(e.v))
    append(a, lowerKey(e.v), e.t)
    append(b, upperKey(e.u), e.t)
  }

  /** Delete one edge in O(1). It must be the oldest live edge of both
    * endpoints, as it is when edges expire in arrival order.
    */
  def delete(e: TemporalEdge): Unit = {
    val a = slot(upperKey(e.u))
    val b = slot(lowerKey(e.v))
    require(isOldest(a, lowerKey(e.v), e.t) && isOldest(b, upperKey(e.u), e.t),
      s"stream graph deletes only the oldest live edge of both endpoints (got $e)")
    nbrs(a).dropFront(1); times(a).dropFront(1)
    nbrs(b).dropFront(1); times(b).dropFront(1)
  }

  private def isOldest(s: Int, nk: Long, t: Long): Boolean =
    s >= 0 && nbrs(s).nonEmpty && nbrs(s)(0) == nk && times(s)(0) == t

  /** Visit live incident edges of slot `s` with timestamp in the interval
    * bounded by `lo`/`hi` (each strict or inclusive), in time order.
    */
  def foreachInRange(s: Int, lo: Long, loStrict: Boolean, hi: Long, hiStrict: Boolean)(
      f: (Long, Long) => Unit): Unit = {
    if (s < 0) return
    val nb = nbrs(s); val ts = times(s)
    var i = ts.rank(lo, inclusive = loStrict)
    val end = ts.rank(hi, inclusive = !hiStrict, from = i)
    while (i < end) { f(nb(i), ts(i)); i += 1 }
  }
}
