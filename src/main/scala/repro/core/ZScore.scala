package repro.core

/** Z-score of a cuisine's food pairing against a randomized model
  * (Methodology IV.B):
  *
  *   Z = sqrt(n_rand) · (N_s^C − N_s^rand) / σ_rand
  *
  * where σ_rand is the standard deviation of recipe scores in the
  * randomized cuisine and n_rand the number of random recipes.
  */
object ZScore {

  /** Z for one (cuisine, null model); σ_rand must be positive, or Z is
    * undefined (e.g. every random recipe scores the same).
    */
  def z(nsReal: Double, nsRand: Double, sigmaRand: Double, nRand: Long): Double = {
    require(sigmaRand > 0,
      s"Z is undefined for sigma_rand = $sigmaRand (n_rand = $nRand): the random recipe scores must vary")
    math.sqrt(nRand.toDouble) * (nsReal - nsRand) / sigmaRand
  }
}
