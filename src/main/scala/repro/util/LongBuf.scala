package repro.util

/** Growable primitive `Long` array with removal at both ends.
  *
  * The sorted-array structure of the per-`ts` ordered arrays of HP (TBC+),
  * the `VS`/`VA` arrays of STBC+ and the time-sorted adjacency queues of
  * the stream graph. Every coverage case on those arrays is a [[rank]]
  * query, the one place their strict/inclusive boundary rule is decided
  * (TBC++'s [[OrderStatTree]] nodes scan with the same rule).
  *
  * Indices are logical: `0` is the first element not yet dropped by
  * [[dropFront]]. Elements live in `buf(head until end)`.
  */
final class LongBuf {

  private var buf = new Array[Long](4)
  private var head = 0
  private var end = 0

  def length: Int = end - head
  def isEmpty: Boolean = end == head
  def nonEmpty: Boolean = end != head
  def apply(i: Int): Long = buf(head + i)
  def last: Long = buf(end - 1)

  def +=(x: Long): this.type = {
    if (end == buf.length) {
      // Reclaim dropped front space when it is at least half the array, so
      // a queue that slides forward stays within twice its live size.
      val n = length
      val dst = if (head * 2 >= buf.length) buf else new Array[Long](buf.length * 2)
      System.arraycopy(buf, head, dst, 0, n)
      buf = dst; head = 0; end = n
    }
    buf(end) = x
    end += 1
    this
  }

  /** Remove and return the last element. */
  def pop(): Long = {
    require(nonEmpty, "pop on an empty LongBuf")
    end -= 1
    buf(end)
  }

  /** Drop the first `n` elements in O(1). */
  def dropFront(n: Int): Unit = {
    require(n >= 0 && n <= length, s"cannot drop $n of $length elements")
    head += n
  }

  def sortInPlace(): Unit = java.util.Arrays.sort(buf, head, end)

  /** On an ascending buffer: the first index `i >= from` whose element is
    * greater than `x` (`inclusive`) or not less than `x` (strict). With
    * `from = 0` that is the number of elements `<= x` or `< x`.
    */
  def rank(x: Long, inclusive: Boolean, from: Int = 0): Int = {
    var lo = from; var hi = length
    while (lo < hi) {
      val m = (lo + hi) >>> 1
      val v = buf(head + m)
      if (if (inclusive) v <= x else v < x) lo = m + 1 else hi = m
    }
    lo
  }
}
