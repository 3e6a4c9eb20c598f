package repro.perfbench

/** A fixed piece of work outside the program, timed between the program's
  * calls to tell how fast the machine runs at that moment.
  *
  * On a shared host the program's speed drifts by a third and more from
  * minute to minute with what the neighbours do to the caches and memory.
  * The program chases pointers through trees and hash maps, and its times
  * drift with this walk's: over eight runs of `lf-hub`, scaling by it cut
  * the run-to-run spread of the timed metrics from 0.12-0.21 to 0.08-0.14
  * of the median. The work is a walk along a random cycle through 4 MB. It
  * allocates nothing, so the program's heap cannot slow it.
  */
final class Reference {
  private val N = 1 << 20
  private val Steps = 300000
  private val next: Array[Int] = {
    val rnd = new java.util.Random(12345L)
    val perm = Array.range(0, N)
    var i = N - 1
    while (i > 0) { val j = rnd.nextInt(i + 1); val t = perm(i); perm(i) = perm(j); perm(j) = t; i -= 1 }
    val nx = new Array[Int](N)
    i = 0
    while (i < N) { nx(perm(i)) = perm((i + 1) % N); i += 1 }
    nx
  }
  private var at = 0

  /** Run the work once; returns its wall time in milliseconds. */
  def timeMs(): Double = {
    val t0 = Clock.nanos()
    var p = at; var i = 0
    while (i < Steps) { p = next(p); i += 1 }
    at = p
    (Clock.nanos() - t0) / 1e6
  }
}

object Reference {
  /** The reference time every timed sample is scaled to: a sample of `t`
    * taken when the work took `r` ms is reported as `t * NominalMs / r`.
    */
  val NominalMs = 30.0
}
