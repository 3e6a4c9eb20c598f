package repro.jobs

import repro.graph.Datasets

/** The argument parsing every job shares. A job parses all its arguments
  * with these before it does any work, so a bad one fails at once, named.
  */
object JobArgs {

  /** `keys`, or `default` if there are none, each resolved by [[Datasets.byKey]]. */
  def datasetKeys(keys: Seq[String], default: String*): Seq[String] =
    (if (keys.nonEmpty) keys else default).map(Datasets.byKey(_).key)

  /** Argument `i`, named `name`, as a `Long`, or `default` if it is absent. */
  def long(args: Seq[String], i: Int, name: String, default: Long): Long =
    args.lift(i).fold(default)(s => s.toLongOption.getOrElse(
      throw new IllegalArgumentException(s"$name must be an integer, got '$s'")))

  /** Argument `i`, named `name`, as a positive time limit, or `default` if it is absent. */
  def limit(args: Seq[String], i: Int, name: String, default: Long): Long = {
    val ms = long(args, i, name, default)
    require(ms > 0, s"$name must be positive, got $ms")
    ms
  }
}
