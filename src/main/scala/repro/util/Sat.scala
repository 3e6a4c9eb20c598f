package repro.util

/** Saturating `Long` arithmetic for time bounds such as `t + delta`.
  *
  * A bound past the `Long` range clamps to `Long.MaxValue`/`MinValue`
  * instead of wrapping to the other end. Clamping is exact for the range
  * and deletion bounds it feeds: no timestamp lies beyond either end, so
  * `delta = Long.MaxValue` simply means "no duration constraint". Lower
  * bounds are written `add(t, -delta)`, which is exact for `delta >= 0`.
  */
object Sat {

  /** Entry points reject `delta < 0`: `add(t, -delta)` is exact only for `delta >= 0`. */
  def requireDelta(delta: Long): Unit =
    require(delta >= 0, s"delta must be >= 0, got delta = $delta")

  def add(a: Long, b: Long): Long = {
    val r = a + b
    if (((a ^ r) & (b ^ r)) < 0) (if (b > 0) Long.MaxValue else Long.MinValue) else r
  }

  /** `|a - b| <= delta` for `delta >= 0`, without wrapping: the difference
    * of two timestamps 2^63 or more apart does not fit in a `Long`.
    */
  def within(a: Long, b: Long, delta: Long): Boolean =
    if (a < b) b <= add(a, delta) else a <= add(b, delta)
}
