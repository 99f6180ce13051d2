package repro.core

import scala.collection.mutable
import scala.util.Random

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** The four randomized-cuisine null models (Methodology IV.B).
  *
  * Every model preserves the cuisine's exact ingredient set and resamples
  * recipe sizes from the cuisine's empirical size distribution:
  *
  *  - RandomUniform:  ingredients uniform over the cuisine's set;
  *  - Frequency:      ingredients ∝ their frequency of use in the cuisine;
  *  - Category:       a real recipe's category composition is preserved,
  *                    ingredients drawn uniformly within each category;
  *  - FrequencyCategory: category composition preserved, ingredients drawn
  *                    ∝ frequency within each category.
  *
  * Sampling runs on the driver (seeded, deterministic) from cuisine
  * statistics collected via DataFrame aggregations, and returns plain rows;
  * callers turn them into a DataFrame so the sampled cuisine is scored by
  * the same Spark operator as the real one ([[FoodPairing.recipeScores]]).
  */
object RandomModels {

  sealed abstract class Model(val name: String)
  case object RandomUniform     extends Model("random")
  case object Frequency         extends Model("frequency")
  case object Category          extends Model("category")
  case object FrequencyCategory extends Model("freq_category")
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

  /** Collect the per-cuisine statistics the models must preserve.
    *
    * @param recipes     (region, recipe_id, ing_id), any number of regions
    * @param ingredients (ing_id, category, ...) lookup table
    */
  def profile(spark: SparkSession, region: String, recipes: DataFrame,
              ingredients: DataFrame): CuisineProfile = {
    val rows = recipes.filter(col("region") === region)
      .select("recipe_id", "ing_id").distinct()
      .join(broadcast(ingredients.select("ing_id", "category")), "ing_id")
      .select("recipe_id", "ing_id", "category")
      .collect()

    val freq = mutable.HashMap.empty[Int, Long].withDefaultValue(0L)
    val catOf = mutable.HashMap.empty[Int, String]
    val byRecipe = mutable.HashMap.empty[Long, mutable.ArrayBuffer[(Int, String)]]
    rows.foreach { r =>
      val rid = r.getLong(0); val ing = r.getInt(1); val cat = r.getString(2)
      freq(ing) += 1
      catOf(ing) = cat
      byRecipe.getOrElseUpdate(rid, mutable.ArrayBuffer.empty) += ((ing, cat))
    }
    val ings = freq.keys.toArray.sorted
    val recipesArr = byRecipe.toArray.sortBy(_._1).map(_._2)
    CuisineProfile(
      region,
      ings,
      ings.map(freq),
      ings.map(catOf),
      recipesArr.map(_.size),
      recipesArr.map(_.map(_._2).toArray),
    )
  }

  /** Generate `nRecipes` random recipes under `model` as
    * (region, recipe_id, ing_id) rows with region = "region@model".
    */
  def sampleRows(prof: CuisineProfile, model: Model, nRecipes: Int,
                 seed: Long = 11L): Vector[(String, Long, Int)] = {
    val rng = new Random(seed * 7919L + prof.region.hashCode * 31L + model.name.hashCode)
    val n = prof.ingredients.length
    val label = s"${prof.region}@${model.name}"

    val cumFreq = prof.frequencies.map(_.toDouble).scanLeft(0.0)(_ + _).tail
    val catIdx: Map[String, Array[Int]] = {
      val m = mutable.HashMap.empty[String, mutable.ArrayBuffer[Int]]
      prof.ingredients.indices.foreach(i =>
        m.getOrElseUpdate(prof.categories(i), mutable.ArrayBuffer.empty) += i)
      m.view.mapValues(_.toArray).toMap
    }
    val catCumFreq: Map[String, Array[Double]] =
      catIdx.view.mapValues(idx => idx.map(prof.frequencies(_).toDouble).scanLeft(0.0)(_ + _).tail).toMap
    val allIdx = prof.ingredients.indices.toArray

    def drawUniform(excluded: mutable.BitSet): Int = {
      var i = rng.nextInt(n)
      var guard = 0
      while (excluded(i) && guard < 10 * n) { i = rng.nextInt(n); guard += 1 }
      if (excluded(i)) allIdx.find(!excluded(_)).get else i
    }
    def drawWeighted(cum: Array[Double], idx: Array[Int], excluded: mutable.BitSet): Int = {
      val total = cum(cum.length - 1)
      var guard = 0
      while (guard < 200) {
        val t = rng.nextDouble() * total
        var lo = 0; var hi = cum.length - 1
        while (lo < hi) { val mid = (lo + hi) / 2; if (cum(mid) < t) lo = mid + 1 else hi = mid }
        val pick = idx(lo)
        if (!excluded(pick)) return pick
        guard += 1
      }
      idx.find(!excluded(_)).getOrElse(-1)
    }
    def drawUniformIn(idx: Array[Int], excluded: mutable.BitSet): Int = {
      var guard = 0
      while (guard < 200) {
        val pick = idx(rng.nextInt(idx.length))
        if (!excluded(pick)) return pick
        guard += 1
      }
      idx.find(!excluded(_)).getOrElse(-1)
    }

    val rows = Vector.newBuilder[(String, Long, Int)]
    var r = 0
    while (r < nRecipes) {
      val template = rng.nextInt(prof.recipeSizes.length)
      val excluded = mutable.BitSet.empty
      val chosen = mutable.ArrayBuffer.empty[Int]
      model match {
        case RandomUniform | Frequency =>
          val size = math.min(prof.recipeSizes(template), n)
          while (chosen.length < size) {
            val pick =
              if (model == RandomUniform) drawUniform(excluded)
              else drawWeighted(cumFreq, allIdx, excluded)
            excluded += pick; chosen += pick
          }
        case Category | FrequencyCategory =>
          for (cat <- prof.recipeCategories(template)) {
            val idx = catIdx(cat)
            val pick =
              if (model == Category) drawUniformIn(idx, excluded)
              else drawWeighted(catCumFreq(cat), idx, excluded)
            // A template is one of the cuisine's own recipes, so it never
            // asks for more ingredients of a category than the cuisine has.
            require(pick >= 0, s"category '$cat' exhausted in ${prof.region} template $template")
            excluded += pick; chosen += pick
          }
      }
      chosen.foreach(i => rows += ((label, r.toLong, prof.ingredients(i))))
      r += 1
    }
    rows.result()
  }
}
