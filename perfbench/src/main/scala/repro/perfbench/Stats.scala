package repro.perfbench

/** The summary statistics the benchmark reports. Quartiles follow Python's
  * `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so a
  * spread computed here matches one computed from the printed values.
  */
object Stats {

  /** Samples needed beyond a reported tail percentile (nearest rank). */
  val MinTailSamples = 10

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** First quartile, median, third quartile. */
  def quartiles(xs: Seq[Double]): (Double, Double, Double) = {
    require(xs.nonEmpty, "quartiles of no samples")
    val d = xs.sorted
    val ld = d.length
    if (ld == 1) return (d(0), d(0), d(0))
    val m = ld + 1
    def cut(i: Int): Double = {
      val j = math.min(math.max(i * m / 4, 1), ld - 1)
      val delta = i * m - j * 4
      (d(j - 1) * (4 - delta) + d(j) * delta) / 4
    }
    (cut(1), cut(2), cut(3))
  }

  /** Number of samples that lie beyond the nearest-rank `p`-th percentile
    * of `n` samples.
    */
  def samplesBeyond(n: Int, p: Double): Int = n - nearestRank(n, p)

  private def nearestRank(n: Int, p: Double): Int =
    math.max(1, math.ceil(p / 100.0 * n - 1e-9).toInt)

  /** Nearest-rank `p`-th percentile of a distribution (not a timing). */
  def percentile(xs: Seq[Double], p: Double): Double = {
    require(xs.nonEmpty, "percentile of no samples")
    xs.sorted.apply(nearestRank(xs.length, p) - 1)
  }

  /** Nearest-rank `p`-th percentile of a timing. Refuses a tail percentile that fewer
    * than [[MinTailSamples]] samples lie beyond, since such a value is set
    * by one or two outliers.
    */
  def tailPercentile(xs: Seq[Double], p: Double): Double = {
    val n = xs.length
    require(n > 0 && samplesBeyond(n, p) >= MinTailSamples,
      s"p$p needs $MinTailSamples samples beyond it; $n samples give ${if (n > 0) samplesBeyond(n, p) else 0}")
    percentile(xs, p)
  }

  /** Self time of a span: its duration minus the part of its interval that
    * child spans cover. Children may overlap each other (parallel stages)
    * and may stick out of the parent; each instant counts once.
    */
  def selfTime(parent: Span, children: Seq[Span]): Long = {
    val clipped = children
      .map(c => Span(math.max(c.start, parent.start), math.min(c.end, parent.end)))
      .filter(c => c.end > c.start)
      .sortBy(_.start)
    var covered = 0L
    var curStart = Long.MinValue
    var curEnd = Long.MinValue
    clipped.foreach { c =>
      if (c.start > curEnd) {
        if (curEnd > curStart) covered += curEnd - curStart
        curStart = c.start; curEnd = c.end
      } else curEnd = math.max(curEnd, c.end)
    }
    if (curEnd > curStart) covered += curEnd - curStart
    parent.duration - covered
  }
}

/** A closed-open time interval `[start, end)`, in any one clock's units. */
final case class Span(start: Long, end: Long) {
  def duration: Long = end - start
}
