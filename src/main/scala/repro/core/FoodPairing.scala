package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import repro.stats.CuisineStats

/** Food pairing scores (Methodology IV.B).
  *
  * For a recipe R with n ingredients,
  *   N_s^R = 2/(n(n−1)) · Σ_{i<j∈R} |F_i ∩ F_j|
  * and a cuisine's score N_s^C is the mean of N_s^R over its recipes.
  *
  * These are the DataFrame reference scorers: within-recipe pair
  * explosion via a self-join, overlap lookup via a (broadcast) left join
  * against the pairwise shared-molecule table, then per-recipe and
  * per-cuisine aggregation. The artifacts score on the Spark driver with
  * [[PairingKernel]]; the tests hold it to these scorers, which the DuckDB
  * oracle checks in turn.
  */
object FoodPairing {

  /** Within-recipe unordered ingredient pairs.
    *
    * @param recipes (region, recipe_id, ing_id) — one row per slot; rows
    *                with duplicate ingredients in a recipe are collapsed
    *                (a recipe is a *set* of ingredients, Materials III.A)
    * @return (region, recipe_id, ing_a, ing_b) with ing_a < ing_b
    */
  def recipePairs(recipes: DataFrame): DataFrame = {
    val distinctRows = recipes.select("region", "recipe_id", "ing_id").distinct()
    val a = distinctRows.withColumnRenamed("ing_id", "ing_a")
    val b = distinctRows.withColumnRenamed("ing_id", "ing_b")
    a.join(b, Seq("region", "recipe_id"))
      .filter(col("ing_a") < col("ing_b"))
  }

  /** Within-recipe pairs with their overlap |F_a ∩ F_b|: `recipePairs`
    * left-joined to the broadcast `pairShared`, absent pairs filled with 0.
    *
    * @return (ing_a, ing_b, region, recipe_id, shared)
    */
  private[core] def pairOverlaps(recipes: DataFrame, pairShared: DataFrame): DataFrame =
    recipePairs(recipes)
      .join(broadcast(pairShared), Seq("ing_a", "ing_b"), "left")
      .na.fill(0, Seq("shared"))

  /** N_s^R per recipe from its pair overlaps.
    *
    * @param overlaps [[pairOverlaps]] of the same `recipes`
    * @return (region, recipe_id, n, shared_sum, score); recipes with n < 2
    *         are dropped (the score is undefined for a single ingredient)
    */
  private[core] def scoredRecipes(recipes: DataFrame, overlaps: DataFrame): DataFrame = {
    val sizes = CuisineStats.recipeSizes(recipes).filter(col("n") >= 2)
    val pairSums = overlaps
      .groupBy("region", "recipe_id")
      .agg(sum("shared").as("shared_sum"))
    sizes
      .join(pairSums, Seq("region", "recipe_id"), "left")
      .na.fill(0, Seq("shared_sum"))
      .withColumn("score", lit(2.0) * col("shared_sum") / (col("n") * (col("n") - 1)))
  }

  /** Per-recipe food pairing score N_s^R.
    *
    * @return (region, recipe_id, n, score); recipes with n < 2 are dropped
    */
  def recipeScores(spark: SparkSession, recipes: DataFrame, pairShared: DataFrame): DataFrame =
    scoredRecipes(recipes, pairOverlaps(recipes, pairShared)).drop("shared_sum")

  /** Cuisine-level aggregation: N_s^C, recipe-score stddev and count. */
  def cuisineScores(recipeScoresDf: DataFrame): DataFrame =
    recipeScoresDf
      .groupBy("region")
      .agg(
        avg("score").as("ns"),
        stddev_pop("score").as("sigma"),
        count(lit(1)).as("n_recipes"),
      )
}
