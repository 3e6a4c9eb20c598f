package repro.core

import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

import repro.util.Sat

/** Which algorithm flavour to run. Baseline = TBC/TBE (§ 3), Plus =
  * TBC+/TBE+ (§ 4.2/4.3, hashmap HP), PlusPlus = TBC++ (§ 4.4, twin
  * order-statistic trees).
  */
sealed trait Variant extends Serializable { def name: String }
object Variant {
  case object Baseline extends Variant { val name = "baseline" }
  case object Plus     extends Variant { val name = "plus" }
  case object PlusPlus extends Variant { val name = "plusplus" }
  val all: Seq[Variant] = Seq(Baseline, Plus, PlusPlus)
}

/** Per-(start-vertex, end-vertex) wedge combination.
  *
  * Both the local drivers ([[LocalAlgos]]) and the Spark pipeline
  * (`repro.sparkdist.SparkButterfly`) funnel the wedges of one
  * (start, end) group through these functions, so the distributed and the
  * single-JVM paths execute identical combine code.
  *
  * A wedge arrives raw as `(mid, s, a)`: middle-vertex, start-leg time,
  * end-leg time (un-normalized).
  */
object LocalCombine {

  /** Count butterflies of one group into `counts` (length 6).
    *
    * @param layer    layer of the start-vertex: 0 upper, 1 lower
    * @param deadline `System.nanoTime` cap on the baseline's rows of pairs
    */
  def count(
      wedges: ArrayBuffer[(Long, Long, Long)], layer: Int, delta: Long,
      variant: Variant, counts: Array[Long],
      deadline: Long = Long.MaxValue): Unit =
    variant match {
      case Variant.Baseline => baselinePairs(wedges, layer, delta, counts, null, deadline)
      case Variant.Plus => SetCross.recurCount(
        buildSides(wedges, delta), layer, delta, counts, () => new HPIndex(withMids = false))
      case Variant.PlusPlus => SetCross.recurCount(
        buildSides(wedges, delta), layer, delta, counts, () => new TreeIndex)
    }

  /** Enumerate butterflies of one group through `sink`. */
  def enumerate(
      wedges: ArrayBuffer[(Long, Long, Long)], layer: Int, delta: Long,
      variant: Variant, sink: SetCross.EnumSink,
      deadline: Long = Long.MaxValue): Unit =
    variant match {
      case Variant.Baseline => baselinePairs(wedges, layer, delta, null, sink, deadline)
      case _ => SetCross.recurEnum(buildSides(wedges, delta), layer, delta, sink)
    }

  /** The baseline "enumerate-filter-match" inner loop (Algorithm 1 lines
    * 9–12): all wedge pairs, validity check, then type classification. When
    * `sink` is null it counts; otherwise it emits instances. The deadline
    * is checked per row: one unpruned group can run for seconds.
    */
  private def baselinePairs(
      wedges: ArrayBuffer[(Long, Long, Long)], layer: Int, delta: Long,
      counts: Array[Long], sink: SetCross.EnumSink, deadline: Long): Unit = {
    val n = wedges.length
    var i = 1
    while (i < n) {
      if (System.nanoTime() > deadline) throw new BenchTimeout
      val (mi, si, ai) = wedges(i)
      var j = 0
      while (j < i) {
        val (mj, sj, aj) = wedges(j)
        if (mi != mj && ButterflyType.isValid(si, ai, sj, aj, delta)) {
          val t = ButterflyType.classify(si, ai, sj, aj, layer)
          if (sink == null) counts(t) += 1
          else sink.emit(t, mi, si, ai, mj, sj, aj)
        }
        j += 1
      }
      i += 1
    }
  }

  /** Build the per-middle-vertex wedge sets (Definition 5) with the Lemma 1
    * pruning (`ts != ta` and `|ts - ta| <= delta`), each subset sorted by
    * wedge priority. Groups with a single middle-vertex yield a one-element
    * array, which the recursion skips.
    */
  def buildSides(wedges: ArrayBuffer[(Long, Long, Long)], delta: Long): Array[Side] = {
    val byMid = mutable.LinkedHashMap.empty[Long, (ArrayBuffer[(Long, Long)], ArrayBuffer[(Long, Long)])]
    wedges.foreach { case (mid, s, a) =>
      if (s != a && Sat.within(s, a, delta)) {
        val (fa, fd) = byMid.getOrElseUpdate(mid, (new ArrayBuffer, new ArrayBuffer))
        if (s < a) fa += ((s, a)) else fd += ((a, s))
      }
    }
    byMid.iterator.map { case (mid, (fa, fd)) =>
      new Side(WList.sorted(fa, mid), WList.sorted(fd, mid))
    }.toArray
  }
}
