package repro.core

import java.util.concurrent.ConcurrentLinkedQueue

import scala.collection.mutable.ArrayBuffer
import scala.runtime.LongRef
import repro.graph.LocalGraph
import repro.util.{ParFold, Sat}

/** Thrown by the benchmark deadline check — the analogue of the paper's
  * 100,000 s execution cap.
  */
final class BenchTimeout extends RuntimeException("bench deadline exceeded")

/** Single-JVM drivers for the five algorithms of §§ 3–4: TBC, TBE, TBC+,
  * TBE+, TBC++. These mirror the C++ reference structure: iterate every
  * vertex as start-vertex, enumerate wedges toward strictly lower-priority
  * middle- and end-vertices, group per end-vertex, and combine.
  *
  * Each (start, end) group is combined on its own, so the groups are the
  * units of work. [[ParFold]] shares the start vertices out over
  * `k = ParFold.workers` workers, one at a time in descending priority:
  * only lower-priority vertices can be middle or end vertices, so the hubs
  * carry the most wedges and go first. A worker generates the groups of its
  * start vertex and appends them to one shared queue; before it takes the
  * next start vertex, it combines queued groups, anyone's, until the queue
  * is empty. So a hub's groups are spread over every worker, not left to
  * the one that generated them. Each worker counts into its own array (or
  * emits into its own sink) and the partials are summed, so the counts
  * equal a sequential run's.
  *
  * Memory stays O(|E| + k·(n + max |W(u)|)), with one `n`-slot grouping
  * array per worker: a worker takes a new start vertex only once the queue
  * is empty, so queued groups come from at most k start vertices, each
  * worker combines one group at a time, and a group's wedges are dropped
  * once it is combined.
  */
object LocalAlgos {

  /** The wedges of start vertex `u`, grouped by end vertex, first reached first.
    * `prune` applies Lemma 1 at enumeration time (TBC+/TBC++); the baseline
    * stores every wedge and defers all checks to the combine phase.
    * `groupOf` is the worker's scratch, indexed by vertex id: 1 + the index
    * of the vertex's group, or 0; it is all zero between calls.
    */
  private def wedgeGroups(
      g: LocalGraph, u: Int, delta: Long, prune: Boolean, groupOf: Array[Int]
  ): ArrayBuffer[Group] = {
    val groups = ArrayBuffer.empty[Group]
    val nbrs = g.adjN(u); val times = g.adjT(u)
    var i = 0
    while (i < nbrs.length) {
      val v = nbrs(i); val t1 = times(i)
      if (u > v) {
        val nbrs2 = g.adjN(v); val times2 = g.adjT(v)
        var j = 0
        while (j < nbrs2.length) {
          val w = nbrs2(j); val t2 = times2(j)
          if (u > w && (!prune || (t1 != t2 && Sat.within(t1, t2, delta)))) {
            if (groupOf(w) == 0) { groups += new Group(u, w, new ArrayBuffer); groupOf(w) = groups.length }
            groups(groupOf(w) - 1).wedges += ((g.origId(v), t1, t2))
          }
          j += 1
        }
      }
      i += 1
    }
    groups.foreach(grp => groupOf(grp.w) = 0)
    groups
  }

  /** One (start, end) wedge group waiting to be combined. */
  private final class Group(val u: Int, val w: Int, val wedges: ArrayBuffer[(Long, Long, Long)])

  /** The loop `count` and `enumerate` share: [[ParFold]] hands out start
    * vertices, hubs first; a worker queues the groups of its start vertex
    * with at least two wedges, then `combine`s queued groups into its own
    * state until the queue is empty. Past `deadline` (`System.nanoTime`) the
    * next group throws [[BenchTimeout]]. A failed combine clears the queue,
    * so the other workers stop draining it.
    */
  private def combineGroups[S](g: LocalGraph, delta: Long, variant: Variant, deadline: Long)(
      init: => S)(combine: (S, Group) => Unit): Seq[S] = {
    Sat.requireDelta(delta)
    val prune = variant != Variant.Baseline
    val queue = new ConcurrentLinkedQueue[Group]
    ParFold(g.n, ParFold.workers)((init, new Array[Int](g.n))) { case ((s, groupOf), i) =>
      val u = g.n - 1 - i // ids are priority ranks
      wedgeGroups(g, u, delta, prune, groupOf).foreach(grp => if (grp.wedges.length > 1) queue.add(grp))
      var grp = queue.poll()
      while (grp != null) {
        try { if (System.nanoTime() > deadline) throw new BenchTimeout; combine(s, grp) }
        catch { case t: Throwable => queue.clear(); throw t }
        grp = queue.poll()
      }
    }.map(_._1)
  }

  /** Run `variant` counting over the whole graph. */
  def count(g: LocalGraph, delta: Long, variant: Variant,
            deadline: Long = Long.MaxValue): Array[Long] = {
    val partials = combineGroups(g, delta, variant, deadline)(new Array[Long](ButterflyType.NumTypes)) {
      (counts, grp) => LocalCombine.count(grp.wedges, g.layer(grp.u).toInt, delta, variant, counts, deadline)
    }
    val counts = new Array[Long](ButterflyType.NumTypes)
    partials.foreach(ButterflyType.addCounts(counts, _))
    counts
  }

  /** TBC — the baseline counting algorithm (Algorithm 1). */
  def tbc(g: LocalGraph, delta: Long, deadline: Long = Long.MaxValue): Array[Long] =
    count(g, delta, Variant.Baseline, deadline)

  /** TBC+ — wedge sets + wedge priority + hashmap HP (Algorithm 2/3/4). */
  def tbcPlus(g: LocalGraph, delta: Long, deadline: Long = Long.MaxValue): Array[Long] =
    count(g, delta, Variant.Plus, deadline)

  /** TBC++ — TBC+ with the twin order-statistic trees (Algorithm 6). */
  def tbcPlusPlus(g: LocalGraph, delta: Long, deadline: Long = Long.MaxValue): Array[Long] =
    count(g, delta, Variant.PlusPlus, deadline)

  /** Run `variant` enumeration; `collect` decides whether instances are
    * materialized (tests) or only counted (benches mirror the paper's
    * "no output" protocol). Collected instances come sorted field by field
    * ([[Instance.ordering]]), so every call yields the same sequence.
    */
  def enumerate(
      g: LocalGraph, delta: Long, variant: Variant,
      collect: Boolean, deadline: Long = Long.MaxValue
  ): (Long, ArrayBuffer[Instance]) = {
    val parts = combineGroups(g, delta, variant, deadline)((LongRef.zero(), new ArrayBuffer[Instance])) {
      case ((total, out), grp) =>
        val layer = g.layer(grp.u).toInt
        val startOrig = g.origId(grp.u)
        val endOrig = g.origId(grp.w)
        val sink = new SetCross.EnumSink {
          def emit(btype: Int, mid1: Long, s1: Long, a1: Long,
                   mid2: Long, s2: Long, a2: Long): Unit = {
            total.elem += 1
            if (collect)
              out += Instance.canonical(btype, layer, startOrig, endOrig, mid1, mid2, s1, a1, s2, a2)
          }
        }
        LocalCombine.enumerate(grp.wedges, layer, delta, variant, sink, deadline)
    }
    val out = new ArrayBuffer[Instance]()
    parts.foreach(out ++= _._2)
    (parts.map(_._1.elem).sum, out.sortInPlace())
  }

  /** TBE — baseline enumeration (§ 3). */
  def tbe(g: LocalGraph, delta: Long, collect: Boolean = true,
          deadline: Long = Long.MaxValue): (Long, ArrayBuffer[Instance]) =
    enumerate(g, delta, Variant.Baseline, collect, deadline)

  /** TBE+ — optimized enumeration (§ 4.3). */
  def tbePlus(g: LocalGraph, delta: Long, collect: Boolean = true,
              deadline: Long = Long.MaxValue): (Long, ArrayBuffer[Instance]) =
    enumerate(g, delta, Variant.Plus, collect, deadline)
}
