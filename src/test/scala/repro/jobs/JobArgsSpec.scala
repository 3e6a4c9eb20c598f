package repro.jobs

import java.io.ByteArrayOutputStream

import org.scalatest.funsuite.AnyFunSuite

/** Each job checks all its arguments before it does any work. */
class JobArgsSpec extends AnyFunSuite {

  /** `run`'s exception of type `E`, and what `run` printed before it threw. */
  private def failure[E <: Throwable](run: => Unit)(implicit ct: reflect.ClassTag[E]): (E, String) = {
    val out = new ByteArrayOutputStream
    val e = Console.withOut(out)(intercept[E](run))
    (e, out.toString)
  }

  test("every dataset key is resolved before the first dataset's work") {
    for (job <- Seq[Array[String] => Unit](
        DeltaSweepJob.main, ScalabilityJob.main, ApproxJob.main, StreamingJob.main)) {
      val (e, printed) = failure[NoSuchElementException](job(Array("WQ", "XX")))
      assert(e.getMessage.contains("XX"), e.getMessage)
      assert(printed.isEmpty, printed)
    }
  }

  test("a number that does not parse is rejected with the argument named") {
    for ((job, name) <- Seq[(Array[String] => Unit, String)](
        (a => OverallPerfJob.main(a), "limitMs"),
        (a => Table4Job.main(a), "deltaDays"),
        (a => SparkCountJob.main("WN" +: a :+ "plusplus"), "deltaDays"))) {
      val (e, _) = failure[IllegalArgumentException](job(Array("4O")))
      assert(e.getMessage.contains(s"$name must be an integer, got '4O'"), e.getMessage)
    }
  }

  test("a time limit that is not positive is rejected with the limit named") {
    for (ms <- Seq("-5", "0")) {
      val (e, printed) = failure[IllegalArgumentException](OverallPerfJob.main(Array(ms)))
      assert(e.getMessage.contains(s"limitMs must be positive, got $ms"), e.getMessage)
      assert(printed.isEmpty, printed)
    }
  }
}
