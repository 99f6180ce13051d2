package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

/** Ingredient contribution χ_i (Methodology IV.C): the percentage change
  * in a cuisine's food pairing score N_s^C in response to removal of
  * ingredient i from the cuisine.
  *
  * Removing i from cuisine C means: every recipe containing i loses that
  * ingredient (its score is recomputed over the remaining n−1
  * ingredients); recipes left with fewer than 2 ingredients drop out of
  * the cuisine average. [[chi]] is one pair-level DataFrame aggregation,
  * with no per-ingredient rescans of the corpus. It is the reference for
  * [[PairingKernel.chi]], which the artifacts use; [[topContributors]]
  * ranks either's rows.
  */
object Contribution {

  /** χ_i for every (region, ingredient).
    *
    * @param recipes    (region, recipe_id, ing_id)
    * @param pairShared (ing_a, ing_b, shared) — pairs absent ⇒ 0 shared
    * @return (region, ing_id, chi, ns_without, freq) where `chi` is the
    *         percentage change and `freq` the number of scored recipes
    *         using the ingredient; `ns_without` is null when no recipe
    *         keeps 2 ingredients, and `chi` when either N_s is null or 0
    */
  def chi(spark: SparkSession, recipes: DataFrame, pairShared: DataFrame): DataFrame = {
    val pairs = FoodPairing.pairOverlaps(recipes, pairShared)
    val scored = FoodPairing.scoredRecipes(recipes, pairs)

    // Per (recipe, member ingredient): sum of shared over pairs involving it.
    val directed = pairs.select(col("region"), col("recipe_id"),
                                col("ing_a").as("ing_id"), col("shared"))
      .unionByName(pairs.select(col("region"), col("recipe_id"),
                                col("ing_b").as("ing_id"), col("shared")))
    val perIng = directed.groupBy("region", "recipe_id", "ing_id")
      .agg(sum("shared").as("ing_shared_sum"))
      .join(scored, Seq("region", "recipe_id"))
      .withColumn("score_without",
        when(col("n") >= 3,
             lit(2.0) * (col("shared_sum") - col("ing_shared_sum")) /
               ((col("n") - 1) * (col("n") - 2)))
          .otherwise(lit(null)))

    // Per (region, ingredient): totals over recipes containing it.
    val perRegionIng = perIng.groupBy("region", "ing_id").agg(
      sum("score").as("removed_score_sum"),
      sum("score_without").as("adjusted_sum"),       // null-safe: skips n==2
      sum(when(col("n") === 2, 1).otherwise(0)).as("dropped_recipes"),
      count(lit(1)).as("freq"),
    ).na.fill(0.0, Seq("adjusted_sum"))

    val regionTotals = scored.groupBy("region").agg(
      sum("score").as("total_score_sum"),
      count(lit(1)).as("n_recipes"),
    ).withColumn("ns", col("total_score_sum") / col("n_recipes"))

    perRegionIng.join(regionTotals, Seq("region"))
      .withColumn("ns_without", try_divide(
        col("total_score_sum") - col("removed_score_sum") + col("adjusted_sum"),
        col("n_recipes") - col("dropped_recipes")))
      .withColumn("chi", try_divide(lit(100.0) * (col("ns_without") - col("ns")), col("ns")))
      .select("region", "ing_id", "chi", "ns_without", "freq")
  }

  /** Top-k contributors per region in the direction of its observed
    * pairing: for positive-pairing regions the strongest contributors are
    * those whose removal most *decreases* N_s (most negative χ), and
    * symmetrically for negative-pairing regions.
    *
    * @param chiDf output of [[chi]]
    * @param signs (region, sign) with sign ∈ {+1, −1} — the *observed*
    *              pairing direction (e.g. sign of the measured Z)
    */
  def topContributors(chiDf: DataFrame, signs: DataFrame, k: Int = 3): DataFrame = {
    val ranked = chiDf.join(signs, Seq("region"))
      .withColumn("strength", -col("sign") * col("chi"))
      .withColumn("rank", row_number().over(
        Window.partitionBy("region").orderBy(col("strength").desc)))
    ranked.filter(col("rank") <= k)
      .select("region", "rank", "ing_id", "chi", "freq")
  }
}
