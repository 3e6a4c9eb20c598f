package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.collection.mutable.ArrayBuffer
import scala.util.Random

/** Parity between the two index implementations (HP hashmap of TBC+ vs the
  * twin trees of TBC++) and unit coverage of the wedge-list machinery.
  */
class WedgeIndexSpec extends AnyFunSuite {

  /** Reference: plain list with linear-scan case counting. */
  private final class RefIndex {
    val items = ArrayBuffer.empty[(Long, Long, Long)]
    def insert(ts: Long, ta: Long, mid: Long = 0L): Unit = items += ((ts, ta, mid))
    def deleteAbove(bound: Long): Unit = items.filterInPlace(_._2 <= bound)
    def cases(curTa: Long): (Long, Long, Long) = {
      var c0 = 0L; var c1 = 0L; var c2 = 0L
      items.foreach { case (ts, ta, _) =>
        if (ts > curTa) c0 += 1
        else if (ts < curTa) {
          if (ta > curTa) c1 += 1
          else if (ta < curTa) c2 += 1
        }
      }
      (c0, c1, c2)
    }
    /** `(case, ts, ta, mid)` of every stored wedge matching a case. */
    def visits(curTa: Long): Seq[(Int, Long, Long, Long)] = items.toSeq.flatMap { case (ts, ta, mid) =>
      if (ts > curTa) Some((0, ts, ta, mid))
      else if (ts < curTa && ta > curTa) Some((1, ts, ta, mid))
      else if (ts < curTa && ta < curTa) Some((2, ts, ta, mid))
      else None
    }
  }

  private def visits(idx: WedgeIndex, curTa: Long): Seq[(Int, Long, Long, Long)] = {
    val seen = ArrayBuffer.empty[(Int, Long, Long, Long)]
    idx.visitCases(curTa)((c, ts, ta, mid) => seen += ((c, ts, ta, mid)))
    seen.toSeq
  }

  /** `idx`'s counts for `curTa`, then its visits as a multiset, against the
    * reference's.
    */
  private def assertMatches(idx: HPIndex, ref: RefIndex, curTa: Long, label: String): Unit = {
    val out = new Array[Long](3)
    idx.countCases(curTa, out)
    val (c0, c1, c2) = ref.cases(curTa)
    assert(out.toSeq == Seq(c0, c1, c2), s"$label countCases($curTa)")
    assert(visits(idx, curTa).sorted == ref.visits(curTa).sorted, s"$label visitCases($curTa)")
  }

  private def mkIndexes(): Seq[(String, WedgeIndex)] =
    Seq("HP" -> new HPIndex(withMids = false), "Tree" -> new TreeIndex)

  for (seed <- 1 to 8)
    test(s"HPIndex and TreeIndex match the reference (seed $seed)") {
      val rnd = new Random(seed)
      for ((name, idx) <- mkIndexes()) {
        val ref = new RefIndex
        // The SetCross protocol: inserts happen in ts-descending batches,
        // ta ascending within a batch; queries use strictly smaller curTa.
        var curTs = 1000L
        for (_ <- 1 to 300) {
          rnd.nextInt(3) match {
            case 0 =>
              curTs -= 1 + rnd.nextInt(3)
              val tas = Seq.fill(1 + rnd.nextInt(3))(curTs + 1 + rnd.nextInt(40).toLong).sorted
              tas.foreach { ta => idx.insert(curTs, ta, 0L); ref.insert(curTs, ta) }
            case 1 =>
              val bound = curTs + rnd.nextInt(45)
              idx.deleteAbove(bound); ref.deleteAbove(bound)
            case 2 =>
              val curTa = curTs - 1 + rnd.nextInt(45)
              val out = new Array[Long](3)
              idx.countCases(curTa, out)
              val (c0, c1, c2) = ref.cases(curTa)
              assert(out(0) == c0 && out(1) == c1 && out(2) == c2,
                s"$name cases($curTa): got ${out.mkString(",")} want $c0,$c1,$c2")
          }
        }
      }
    }

  test("HPIndex visitCases visits exactly what countCases counts") {
    val rnd = new Random(99)
    val idx = new HPIndex(withMids = true)
    var ts = 500L
    for (_ <- 1 to 60) {
      ts -= 1 + rnd.nextInt(2)
      idx.insert(ts, ts + 1 + rnd.nextInt(30), rnd.nextInt(5).toLong)
    }
    for (curTa <- Seq(470L, 490L, 510L, 530L)) {
      val out = new Array[Long](3)
      idx.countCases(curTa, out)
      val seen = new Array[Long](3)
      idx.visitCases(curTa)((c, _, _, _) => seen(c) += 1)
      assert(out.sameElements(seen), s"curTa=$curTa")
    }
  }

  test("HPIndex rejects an insert above the last stored start time, naming both") {
    val idx = new HPIndex(withMids = false)
    idx.insert(10L, 20L, 0L)
    idx.insert(10L, 25L, 0L)
    idx.insert(7L, 9L, 0L)
    val e = intercept[IllegalArgumentException](idx.insert(12L, 30L, 0L))
    assert(e.getMessage.contains("start time 12") && e.getMessage.contains("start time 7"), e.getMessage)
  }

  test("HPIndex deleteAbove empties front, middle and back buckets and keeps answering") {
    val idx = new HPIndex(withMids = true)
    val ref = new RefIndex
    def ins(ts: Long, ta: Long, mid: Long): Unit = { idx.insert(ts, ta, mid); ref.insert(ts, ta, mid) }
    // Start times 100 (front), 80 (middle) and 60 (back) hold only wedges
    // ending above 110; 90 and 70 keep some.
    ins(100, 150, 1); ins(90, 91, 2); ins(90, 120, 3); ins(80, 140, 4)
    ins(70, 71, 5); ins(70, 75, 6); ins(60, 130, 7)
    idx.deleteAbove(110); ref.deleteAbove(110)
    val probes = Seq(50L, 65L, 70L, 73L, 80L, 85L, 91L, 95L, 100L, 105L)
    probes.foreach(assertMatches(idx, ref, _, "after delete"))
    // Inserts go on below the last live key, into reused buckets, and
    // above the deleted back key 60.
    ins(70, 80, 8); ins(65, 66, 9); ins(40, 45, 10); ins(40, 104, 11)
    probes.foreach(assertMatches(idx, ref, _, "after reinsert"))
    idx.deleteAbove(72); ref.deleteAbove(72)
    probes.foreach(assertMatches(idx, ref, _, "after second delete"))
    idx.deleteAbove(0); ref.deleteAbove(0)
    probes.foreach(assertMatches(idx, ref, _, "when empty"))
    ins(500, 501, 12)
    probes.foreach(assertMatches(idx, ref, _, "after emptying"))
  }

  for (seed <- 1 to 4)
    test(s"HPIndex with mids visits the reference's (case, ts, ta, mid) multiset (seed $seed)") {
      val rnd = new Random(seed)
      val idx = new HPIndex(withMids = true)
      val ref = new RefIndex
      var curTs = 1000L
      for (step <- 1 to 300) {
        rnd.nextInt(3) match {
          case 0 =>
            curTs -= 1 + rnd.nextInt(3)
            val tas = Seq.fill(1 + rnd.nextInt(3))(curTs + 1 + rnd.nextInt(40).toLong).sorted
            tas.foreach { ta =>
              val mid = rnd.nextInt(5).toLong
              idx.insert(curTs, ta, mid); ref.insert(curTs, ta, mid)
            }
          case 1 =>
            val bound = curTs + rnd.nextInt(45)
            idx.deleteAbove(bound); ref.deleteAbove(bound)
          case 2 =>
            assertMatches(idx, ref, curTs - 1 + rnd.nextInt(45), s"step $step")
        }
      }
    }

  test("TreeIndex rejects enumeration") {
    intercept[UnsupportedOperationException](new TreeIndex().visitCases(0L)((_, _, _, _) => ()))
  }

  /** `idx`'s counts against the reference's at every probe. */
  private def assertCounts(idx: WedgeIndex, ref: RefIndex, probes: Iterable[Long], label: String): Unit =
    for (curTa <- probes) {
      val out = new Array[Long](3)
      idx.countCases(curTa, out)
      val (c0, c1, c2) = ref.cases(curTa)
      assert(out.toSeq == Seq(c0, c1, c2), s"$label countCases($curTa)")
    }

  test("TreeIndex deletes wedges sharing one end time, whatever their start times, in one deleteAbove") {
    val idx = new TreeIndex; val ref = new RefIndex
    def ins(ts: Long, ta: Long): Unit = { idx.insert(ts, ta, 0L); ref.insert(ts, ta) }
    // Rounds in SetCross order: start times descending, end times ascending.
    ins(100, 150); ins(100, 170); ins(90, 120); ins(90, 150); ins(80, 150); ins(80, 160)
    ins(70, 110); ins(70, 150); ins(60, 150)
    val probes = (55L to 175L by 5L) ++ Seq(59L, 61L, 101L, 149L, 151L)
    assertCounts(idx, ref, probes, "filled")
    idx.deleteAbove(160); ref.deleteAbove(160)
    assertCounts(idx, ref, probes, "above 160 gone")
    idx.deleteAbove(149); ref.deleteAbove(149) // all five wedges ending at 150, and 160
    assertCounts(idx, ref, probes, "above 149 gone")
    ins(50, 150); ins(50, 151)
    assertCounts(idx, ref, probes, "after reinsert")
  }

  test("TreeIndex deleteAbove(Long.MaxValue) is a no-op") {
    val rnd = new Random(3)
    val idx = new TreeIndex; val ref = new RefIndex
    for (ts <- 500L to 1L by -1L; _ <- 0 until 1 + rnd.nextInt(3)) {
      val ta = ts + 1 + rnd.nextInt(300); idx.insert(ts, ta, 0L); ref.insert(ts, ta)
    }
    val probes = (0L to 900L by 3L) ++ Seq(Long.MinValue, Long.MaxValue)
    assertCounts(idx, ref, probes, "filled")
    idx.deleteAbove(Long.MaxValue)
    assertCounts(idx, ref, probes, "after deleteAbove(Long.MaxValue)")
  }

  test("TreeIndex drained to empty answers zero and is reused") {
    val rnd = new Random(4)
    val idx = new TreeIndex; val ref = new RefIndex
    var ts = 10000L
    val probes = (0L to 10100L by 37L)
    for (round <- 1 to 3) {
      for (_ <- 1 to 2000) { // enough wedges for trees of three levels
        ts -= 1 + rnd.nextInt(2)
        val ta = ts + 1 + rnd.nextInt(100); idx.insert(ts, ta, 0L); ref.insert(ts, ta)
      }
      assertCounts(idx, ref, probes, s"round $round filled")
      idx.deleteAbove(ts); ref.deleteAbove(ts) // every end time lies above every start time
      assert(ref.items.isEmpty)
      assertCounts(idx, ref, probes, s"round $round drained")
    }
  }

  test("TreeIndex matches the reference at both ends of the Long range, in SetCross order") {
    val idx = new TreeIndex; val ref = new RefIndex
    def ins(ts: Long, ta: Long): Unit = { idx.insert(ts, ta, 0L); ref.insert(ts, ta) }
    val hi = Long.MaxValue; val lo = Long.MinValue
    val probes = Seq(lo, lo + 1, lo + 2, lo + 3, lo + 5, -1L, 0L, 1L, hi - 5, hi - 3, hi - 2, hi - 1, hi)
    ins(hi - 2, hi - 1); ins(hi - 2, hi); ins(hi - 3, hi); ins(hi - 4, hi - 3)
    assertCounts(idx, ref, probes, "high end")
    idx.deleteAbove(hi - 1); ref.deleteAbove(hi - 1)
    assertCounts(idx, ref, probes, "high end, end time hi gone")
    ins(0, 1); ins(lo + 2, lo + 3); ins(lo + 1, lo + 5); ins(lo + 1, hi); ins(lo, lo + 1); ins(lo, hi)
    assertCounts(idx, ref, probes, "both ends")
    idx.deleteAbove(lo + 3); ref.deleteAbove(lo + 3)
    assertCounts(idx, ref, probes, "low end left")
    idx.deleteAbove(lo); ref.deleteAbove(lo)
    assertCounts(idx, ref, probes, "drained")
  }

  test("WList.sorted orders by wedge priority (ts desc, ta asc)") {
    val buf = ArrayBuffer((3L, 9L), (5L, 7L), (3L, 4L), (5L, 6L), (1L, 2L))
    val w = WList.sorted(buf, 42L)
    assert(w.ts.toSeq == Seq(5L, 5L, 3L, 3L, 1L))
    assert(w.ta.toSeq == Seq(6L, 7L, 4L, 9L, 2L))
    assert(w.mid.forall(_ == 42L))
  }

  test("WList.merge preserves wedge-priority order") {
    val a = WList.sorted(ArrayBuffer((9L, 10L), (5L, 6L), (2L, 8L)), 1L)
    val b = WList.sorted(ArrayBuffer((9L, 11L), (7L, 8L), (2L, 3L)), 2L)
    val m = WList.merge(a, b)
    assert(m.size == 6)
    val pairs = m.ts.zip(m.ta).toSeq
    assert(pairs == Seq((9L, 10L), (9L, 11L), (7L, 8L), (5L, 6L), (2L, 3L), (2L, 8L)))
  }

  test("WList.merge with an empty side returns the other") {
    val a = WList.sorted(ArrayBuffer((4L, 5L)), 1L)
    assert(WList.merge(a, WList.empty) eq a)
    assert(WList.merge(WList.empty, a) eq a)
  }

  test("buildSides applies Lemma 1 pruning and direction split") {
    val wedges = ArrayBuffer(
      (1L, 3L, 8L),   // forward, span 5
      (1L, 8L, 3L),   // backward, span 5
      (1L, 4L, 4L),   // equal stamps -> pruned
      (1L, 0L, 100L), // span > delta -> pruned
      (2L, 6L, 7L))   // second middle
    val sides = LocalCombine.buildSides(wedges, delta = 10L)
    assert(sides.length == 2)
    assert(sides(0).a.size == 1 && sides(0).d.size == 1)
    assert(sides(0).d.ts(0) == 3L && sides(0).d.ta(0) == 8L) // swapped on insert
    assert(sides(1).a.size == 1 && sides(1).d.size == 0)
  }

  test("buildSides on all-pruned input yields no sides") {
    val wedges = ArrayBuffer((1L, 5L, 5L), (2L, 0L, 99L))
    assert(LocalCombine.buildSides(wedges, delta = 3L).isEmpty)
  }
}
