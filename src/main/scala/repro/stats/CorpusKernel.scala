package repro.stats

import repro.core.PairingKernel
import repro.stats.CuisineStats.{Unregioned, World}

/** The corpus statistics of Table 1, Fig 2 and Fig 3, and the ranking of
  * Fig 5, on the Spark driver from the collected rows of the recipe table.
  * The table is small (about 46k rows at scale 0.1), so one collect and a
  * few groupings replace a chain of shuffles per statistic. Each method
  * mirrors the [[CuisineStats]] DataFrame definition that the artifacts ran
  * before, and that stays as the reference the tests compare it with:
  *
  *  - [[table1]]: distinct recipe ids and distinct ingredient ids per
  *    region, UNREG excluded; WORLD counts the distinct (region, recipe_id)
  *    pairs and the distinct ingredient ids of all rows, UNREG included.
  *  - [[categoryComposition]]: slots per (region, category) with duplicate
  *    rows counted, for every region, UNREG included, and WORLD; only
  *    categories with a use appear, and share = uses / region total.
  *  - [[meanSizes]]: n = distinct ingredients per recipe, mean = Σn / count
  *    and max n per region, UNREG excluded; the WORLD row is taken over
  *    the same regional recipes (and is absent when there are none).
  *  - [[popularity]]: per region, freq = recipes using the ingredient,
  *    rank by (freq desc, ing_id asc) from 1, norm = freq / max freq.
  *  - [[popularitySlopes]]: per region, UNREG excluded, the least-squares
  *    slope (avg(xy) − avg x · avg y) / (avg(x²) − (avg x)²) with x = ln rank
  *    and y = ln norm, averaged in rank order; a region whose slope is
  *    undefined (one distinct ingredient) is an error.
  *  - [[sizeHistogram]]: recipes per size n over all rows, UNREG included.
  *  - [[CorpusKernel.top]]: a region's k strongest χ in the direction of
  *    its sign, sign·χ ascending, rows without χ last, ties by ing_id;
  *    `Experiments.topContributors` ranks only the regions it has a sign for.
  *
  * Grouping by recipe follows [[PairingKernel.recipes]]; the WORLD size
  * rows group by recipe id alone, as the DataFrame path's relabelled
  * region does.
  *
  * @param rows (region, recipe_id, ing_id) rows, UNREG and duplicates included
  */
final class CorpusKernel(rows: Array[(String, Long, Int)]) {
  import CorpusKernel._

  /** Each region's recipes, as [[PairingKernel.recipes]] gives them. */
  lazy val recipes: Map[String, Array[Array[Int]]] =
    rows.groupBy(_._1).view.mapValues(rs => PairingKernel.recipes(rs)).toMap

  private def regions: Vector[String] = recipes.keys.filter(_ != Unregioned).toVector.sorted

  /** Table 1: (region, recipes, ingredients) by region, then WORLD. */
  def table1: Vector[(String, Long, Long)] =
    regions.map { r => (r, recipes(r).length.toLong, recipes(r).flatten.distinct.length.toLong) } :+
      ((World, recipes.valuesIterator.map(_.length.toLong).sum, rows.map(_._3).distinct.length.toLong))

  /** Fig 2: (region, category, share) for the ingredient ids `category` knows. */
  def categoryComposition(category: Int => Option[String]): Vector[(String, String, Double)] = {
    val uses = rows.toVector
      .flatMap { case (region, _, ing) => category(ing).toVector.flatMap(c => Vector(region -> c, World -> c)) }
      .groupMapReduce(identity)(_ => 1L)(_ + _)
    val total = uses.groupMapReduce(_._1._1)(_._2)(_ + _)
    uses.toVector.sorted.map { case ((region, c), n) => (region, c, n.toDouble / total(region)) }
  }

  /** Fig 3: (region, mean size, max size) by region, then WORLD. */
  def meanSizes: Vector[(String, Double, Int)] = {
    def row(region: String, sizes: Array[Int]) = (region, sizes.foldLeft(0.0)(_ + _) / sizes.length, sizes.max)
    val world = PairingKernel.recipes(rows.filter(_._1 != Unregioned)).map(_.length)
    regions.map(r => row(r, recipes(r).map(_.length))) ++ Option.when(world.nonEmpty)(row(World, world))
  }

  /** Fig 3b: a region's ingredients in rank order. */
  def popularity(region: String): Vector[Popularity] = {
    val ranked = recipes(region).flatten.groupMapReduce(identity)(_ => 1L)(_ + _)
      .toVector.sortBy { case (ing, freq) => (-freq, ing) }
    val top = ranked.head._2
    ranked.zipWithIndex.map { case ((ing, freq), i) => Popularity(ing, freq, i + 1, freq.toDouble / top) }
  }

  /** Fig 3b: (region, slope of ln norm against ln rank) by region. */
  def popularitySlopes: Vector[(String, Double)] = regions.map { region =>
    // StrictMath, as Spark's `log`, and sums in rank order, as Spark's
    // aggregate over the window's output, give the DataFrame's bits.
    val xy = popularity(region).map(q => (StrictMath.log(q.rank.toDouble), StrictMath.log(q.normFreq)))
    def avg(f: ((Double, Double)) => Double) = xy.foldLeft(0.0)((s, q) => s + f(q)) / xy.length
    val (x, y) = (avg(_._1), avg(_._2))
    val varX = avg(q => q._1 * q._1) - x * x
    require(varX != 0, s"region $region uses one distinct ingredient, so its popularity slope is undefined")
    region -> (avg(q => q._1 * q._2) - x * y) / varX
  }

  /** Fig 3a: (n, recipes of n distinct ingredients) in n order. */
  def sizeHistogram: Vector[(Int, Long)] =
    PairingKernel.recipes(rows).groupMapReduce(_.length)(_ => 1L)(_ + _).toVector.sorted
}

object CorpusKernel {

  /** One ingredient of a region's popularity curve. */
  final case class Popularity(ingId: Int, freq: Long, rank: Int, normFreq: Double)

  /** Fig 5: the `k` rows whose χ is strongest in the direction of `sign`
    * (most negative sign·χ first), rows without χ last, ties by ingredient id.
    */
  def top(chi: Seq[PairingKernel.Chi], sign: Int, k: Int): Seq[PairingKernel.Chi] = {
    import scala.math.Ordering.Double.TotalOrdering
    chi.sortBy(c => (c.chi.isEmpty, c.chi.fold(0.0)(sign * _), c.ingId)).take(k)
  }
}
