package repro.stats

import repro.core.PairingKernel
import repro.stats.CuisineStats.{Unregioned, World}

/** The corpus statistics of Table 1, Fig 2 and Fig 3, and the ranking of
  * Fig 5, on the Spark driver from the collected rows of the recipe table.
  * The table is small (41,114 rows at scale 0.1), so `Pipeline.corpus`
  * collects it once per pipeline, and each statistic is a few loops over
  * flat arrays instead of a chain of shuffles. Each method mirrors the
  * [[CuisineStats]] DataFrame definition that the artifacts ran before, and
  * that stays as the reference the tests compare it with:
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
  * A recipe is a (region, recipe_id) pair, and its ingredients are the
  * distinct ids of its rows, as [[PairingKernel.recipes]] groups them; the
  * WORLD size rows group by recipe id alone, as the DataFrame path's
  * relabelled region does. The rows are not kept: the constructor converts
  * them into [[CorpusKernel.Columns]].
  *
  * @param rows (region, recipe_id, ing_id) rows, UNREG and duplicates included
  */
final class CorpusKernel private (c: CorpusKernel.Columns) {
  import CorpusKernel._
  import c._

  def this(rows: Array[(String, Long, Int)]) = this(CorpusKernel.Columns(rows))

  /** Each region's recipes, as [[PairingKernel.recipes]] gives them. */
  lazy val recipes: Map[String, Array[Array[Int]]] =
    region.indices.groupBy(region(_)).map { case (g, rs) =>
      regions(g) -> rs.toArray.map(r => ing.slice(offsets(r), offsets(r + 1)).map(ingIds(_)))
    }

  /** Indices of the regions other than UNREG, in name order. */
  private def regional: Vector[Int] = regions.indices.filter(regions(_) != Unregioned).toVector

  /** Region × ingredient counts, row-major: the recipes that use each
    * ingredient, or with `bySlot` the slots that hold it.
    */
  private def uses(bySlot: Boolean): Array[Long] = {
    val out = new Array[Long](regions.length * ingIds.length)
    for (r <- region.indices; s <- offsets(r) until offsets(r + 1))
      out(region(r) * ingIds.length + ing(s)) += (if (bySlot) slots(s) else 1)
    out
  }

  /** Table 1: (region, recipes, ingredients) by region, then WORLD. */
  def table1: Vector[(String, Long, Long)] = {
    val used = uses(bySlot = false)
    regional.map { g =>
      (regions(g), region.count(_ == g).toLong, ingIds.indices.count(i => used(g * ingIds.length + i) > 0).toLong)
    } :+ ((World, region.length.toLong, ingIds.length.toLong))
  }

  /** Fig 2: (region, category, share) for the ingredient ids `category` knows. */
  def categoryComposition(category: Int => Option[String]): Vector[(String, String, Double)] = {
    val slotted = uses(bySlot = true)
    val cats = ingIds.map(category)
    def shares(name: String, count: Int => Long) = {
      val byCategory = ingIds.indices.filter(i => cats(i).isDefined && count(i) > 0)
        .groupMapReduce(cats(_).get)(count)(_ + _)
      val total = byCategory.values.sum
      byCategory.toVector.map { case (cat, n) => (name, cat, n.toDouble / total) }
    }
    (regions.indices.flatMap(g => shares(regions(g), i => slotted(g * ingIds.length + i))) ++
      shares(World, i => regions.indices.map(g => slotted(g * ingIds.length + i)).sum))
      .sortBy(r => (r._1, r._2)).toVector
  }

  /** Fig 3: (region, mean size, max size) by region, then WORLD. */
  def meanSizes: Vector[(String, Double, Int)] = {
    def row(name: String, sizes: Seq[Int]) = (name, sizes.foldLeft(0.0)(_ + _) / sizes.length, sizes.max)
    def sizes(g: Int) = region.indices.filter(region(_) == g).map(r => offsets(r + 1) - offsets(r))
    val world = sizesById(regions(_) != Unregioned)
    regional.map(g => row(regions(g), sizes(g))) ++ Option.when(world.nonEmpty)(row(World, world.toSeq))
  }

  /** Fig 3b: a region's ingredients in rank order. */
  def popularity(region: String): Vector[Popularity] = {
    val g = regions.indexOf(region)
    require(g >= 0, s"the corpus has no recipe of region $region")
    popularity(g, uses(bySlot = false))
  }

  /** Region `g`'s popularity curve out of the recipe counts `used`; the
    * stable sort keeps ties in ingredient id order.
    */
  private def popularity(g: Int, used: Array[Long]): Vector[Popularity] = {
    val freq = (i: Int) => used(g * ingIds.length + i)
    val ranked = ingIds.indices.filter(freq(_) > 0).sortBy(i => -freq(i))
    val top = freq(ranked.head)
    ranked.zipWithIndex.map { case (i, k) => Popularity(ingIds(i), freq(i), k + 1, freq(i).toDouble / top) }.toVector
  }

  /** Fig 3b: (region, slope of ln norm against ln rank) by region. */
  def popularitySlopes: Vector[(String, Double)] = {
    val used = uses(bySlot = false)
    regional.map { g =>
      // StrictMath, as Spark's `log`, and sums in rank order, as Spark's
      // aggregate over the window's output, give the DataFrame's bits.
      val xy = popularity(g, used).map(q => (StrictMath.log(q.rank.toDouble), StrictMath.log(q.normFreq)))
      def avg(f: ((Double, Double)) => Double) = xy.foldLeft(0.0)((s, q) => s + f(q)) / xy.length
      val (x, y) = (avg(_._1), avg(_._2))
      val varX = avg(q => q._1 * q._1) - x * x
      require(varX != 0, s"region ${regions(g)} uses one distinct ingredient, so its popularity slope is undefined")
      regions(g) -> (avg(q => q._1 * q._2) - x * y) / varX
    }
  }

  /** Fig 3a: (n, recipes of n distinct ingredients) in n order. */
  def sizeHistogram: Vector[(Int, Long)] =
    sizesById(_ => true).groupMapReduce(identity)(_ => 1L)(_ + _).toVector.sorted

  /** Distinct ingredients per recipe id, over the recipes of the regions
    * `keep` admits; a recipe id in several regions is one recipe.
    */
  private def sizesById(keep: Int => Boolean): Iterable[Int] =
    region.indices.filter(r => keep(region(r))).groupBy(ids(_)).values
      .map(_.flatMap(r => ing.slice(offsets(r), offsets(r + 1))).distinct.size)
}

object CorpusKernel {

  /** A corpus as flat arrays. Recipe r, of region `regions(region(r))` and
    * id `ids(r)`, comes in (id, region) order and holds entries `offsets(r)`
    * until `offsets(r + 1)`; entry s is ingredient `ingIds(ing(s))`, and
    * `slots(s)` rows hold it. A recipe's entries are in ingredient id order.
    * `regions` and `ingIds` are sorted and distinct.
    */
  private final case class Columns(regions: Array[String], ingIds: Array[Int], region: Array[Int],
                                   ids: Array[Long], offsets: Array[Int], ing: Array[Int], slots: Array[Int])

  private object Columns {
    def apply(rows: Array[(String, Long, Int)]): Columns = {
      val regions = rows.map(_._1).distinct.sorted
      val ingIds = rows.map(_._3).distinct.sorted
      // (id, region) → the recipe's (ingredient index, rows) in ingredient order
      val recipes = rows.groupBy(r => (r._2, r._1)).toArray.sortBy(_._1).map { case (key, rs) =>
        key -> rs.groupMapReduce(r => java.util.Arrays.binarySearch(ingIds, r._3))(_ => 1)(_ + _).toArray.sorted
      }
      Columns(regions, ingIds, recipes.map(r => regions.indexOf(r._1._2)), recipes.map(_._1._1),
              recipes.scanLeft(0)(_ + _._2.length), recipes.flatMap(_._2.map(_._1)), recipes.flatMap(_._2.map(_._2)))
    }
  }

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
