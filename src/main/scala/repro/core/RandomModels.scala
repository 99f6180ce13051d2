package repro.core

import scala.util.Random

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** The four randomized-cuisine null models (Methodology IV.B).
  *
  * Every model preserves the cuisine's exact ingredient set and takes each
  * random recipe's shape from a template, one of the cuisine's own recipes
  * picked uniformly. The four models are a 2×2 grid:
  *
  * {{{
  *   template fixes ↓ / draws →   uniform         ∝ frequency
  *   the recipe size              RandomUniform   Frequency
  *   the category multiset        Category        FrequencyCategory
  * }}}
  *
  * A model that keeps the recipe size draws the template's size of
  * ingredients from the whole cuisine; a model that keeps the category
  * multiset draws one ingredient from each of the template's categories.
  * Either way a draw is from a pool and without replacement within the
  * recipe, uniform over the pool or in proportion to each ingredient's
  * frequency of use in the cuisine.
  *
  * Sampling runs on the driver (seeded, deterministic) from cuisine
  * statistics collected via DataFrame aggregations. [[sample]] returns the
  * recipes as the sorted id arrays [[PairingKernel.cuisine]] scores;
  * [[sampleRows]] returns the same draws as (region, recipe_id, ing_id)
  * rows, the shape of a real cuisine, for [[FoodPairing.recipeScores]].
  */
object RandomModels {

  sealed abstract class Model(val name: String, val byFrequency: Boolean,
                              val keepsCategories: Boolean)
  case object RandomUniform     extends Model("random", byFrequency = false, keepsCategories = false)
  case object Frequency         extends Model("frequency", byFrequency = true, keepsCategories = false)
  case object Category          extends Model("category", byFrequency = false, keepsCategories = true)
  case object FrequencyCategory extends Model("freq_category", byFrequency = true, keepsCategories = true)
  val AllModels: Vector[Model] = Vector(RandomUniform, Frequency, Category, FrequencyCategory)

  /** Everything a sampler needs about one cuisine, extracted via Spark.
    * Arrays `ingredients`, `frequencies`, `categories` are aligned.
    */
  final case class CuisineProfile(
      region: String,
      ingredients: Array[Int],
      frequencies: Array[Long],
      categories: Array[String],
      recipeSizes: Array[Int],
      recipeCategories: Array[Array[String]],
  )

  /** Rejected draws after which a draw takes the pool's first free index. */
  private val MaxRejections = 200

  /** Collect the per-cuisine statistics the models must preserve.
    *
    * @param recipes     (region, recipe_id, ing_id), any number of regions
    * @param ingredients (ing_id, category, ...) lookup table
    */
  def profile(spark: SparkSession, region: String, recipes: DataFrame,
              ingredients: DataFrame): CuisineProfile =
    profile(region, distinctRows(recipes, region)
      .join(broadcast(ingredients.select("ing_id", "category")), "ing_id")
      .select("recipe_id", "ing_id", "category")
      .collect().toSeq
      .map(r => (r.getLong(0), r.getInt(1), r.getString(2))))

  /** One cuisine's distinct (recipe_id, ing_id) rows. A broadcast join
    * streams them in order, so `profile` collects them in the order this
    * frame collects them.
    */
  private[repro] def distinctRows(recipes: DataFrame, region: String): DataFrame =
    recipes.filter(col("region") === region).select("recipe_id", "ing_id").distinct()

  /** The profile of one cuisine from its distinct (recipe_id, ing_id,
    * category) rows: ingredients sorted by id, recipes by id, and each
    * recipe's categories in row order.
    */
  def profile(region: String, rows: Seq[(Long, Int, String)]): CuisineProfile = {
    val byIngredient = rows.groupBy(_._2).toArray.sortBy(_._1)
    val recipes = rows.groupBy(_._1).toArray.sortBy(_._1).map(_._2.map(_._3).toArray)
    CuisineProfile(
      region,
      byIngredient.map(_._1),
      byIngredient.map(_._2.size.toLong),
      byIngredient.map(_._2.head._3),
      recipes.map(_.length),
      recipes,
    )
  }

  /** Generate `nRecipes` random recipes under `model`, each as its
    * ingredient ids in ascending order, as [[PairingKernel.cuisine]] takes
    * them; element r is the r-th recipe drawn.
    */
  def sample(prof: CuisineProfile, model: Model, nRecipes: Int, seed: Long = 11L): Array[Array[Int]] = {
    val out = new Array[Array[Int]](nRecipes)
    draws(prof, model, nRecipes, seed) { (r, ings) => java.util.Arrays.sort(ings); out(r) = ings }
    out
  }

  /** The recipes of [[sample]] as (region, recipe_id, ing_id) rows with
    * region = "region@model", each recipe's ingredients in draw order.
    */
  def sampleRows(prof: CuisineProfile, model: Model, nRecipes: Int,
                 seed: Long = 11L): Vector[(String, Long, Int)] = {
    val label = s"${prof.region}@${model.name}"
    val rows = Vector.newBuilder[(String, Long, Int)]
    draws(prof, model, nRecipes, seed) { (r, ings) => ings.foreach(i => rows += ((label, r.toLong, i))) }
    rows.result()
  }

  /** Draws `nRecipes` recipes under `model`, calling `f(r, ids)` for the
    * r-th with a new array of its ingredient ids in draw order. Per recipe
    * the RNG draws one template, then one ingredient per template slot.
    */
  private def draws(prof: CuisineProfile, model: Model, nRecipes: Int, seed: Long)
                   (f: (Int, Array[Int]) => Unit): Unit = {
    val rng = new Random(seed * 7919L + prof.region.hashCode * 31L + model.name.hashCode)

    /** Indices into the profile's arrays, with their cumulative frequencies. */
    final class Pool(val idx: Array[Int]) {
      val cumFreq: Array[Double] = idx.map(prof.frequencies(_).toDouble).scanLeft(0.0)(_ + _).tail
    }
    val cuisine = new Pool(prof.ingredients.indices.toArray)
    val byCategory = prof.ingredients.indices.toArray.groupBy(prof.categories(_))
      .view.mapValues(new Pool(_)).toMap
    // One pool per ingredient the template asks for. A template is one of
    // the cuisine's own recipes, so no pool is asked for more ingredients
    // than it holds.
    val templates: Array[Array[Pool]] = prof.recipeSizes.indices.toArray.map { t =>
      if (model.keepsCategories) prof.recipeCategories(t).map(byCategory)
      else Array.fill(prof.recipeSizes(t))(cuisine)
    }
    // The profile indices the recipe being drawn holds already.
    val excluded = new Array[Boolean](prof.ingredients.length)

    def draw(pool: Pool): Int = {
      var rejections = 0
      while (rejections < MaxRejections) {
        val k =
          if (model.byFrequency) {
            val cum = pool.cumFreq; val t = rng.nextDouble() * cum.last
            var lo = 0; var hi = cum.length - 1
            while (lo < hi) { val mid = (lo + hi) / 2; if (cum(mid) < t) lo = mid + 1 else hi = mid }
            lo
          } else rng.nextInt(pool.idx.length)
        if (!excluded(pool.idx(k))) return pool.idx(k)
        rejections += 1
      }
      val free = pool.idx.indexWhere(!excluded(_))
      require(free >= 0, s"a template exhausted its ingredient pool in ${prof.region}")
      pool.idx(free)
    }

    for (r <- 0 until nRecipes) {
      val picks = templates(rng.nextInt(templates.length)).map { pool =>
        val pick = draw(pool)
        excluded(pick) = true
        pick
      }
      picks.foreach(excluded(_) = false)
      f(r, picks.map(prof.ingredients(_)))
    }
  }
}
