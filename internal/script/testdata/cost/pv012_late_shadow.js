// expect: PV012
// The write in the inner block runs before the block's own `var i`, so it
// lands on the loop's induction variable: the counted-loop idiom does not
// hold. A pass that asked only the innermost binding of the written `i` —
// the block's — would trust the closed-form count.
function event_received(message) {
  for (var i = 0; i < 10; i++) {
    {
      i = i + 5;
      var i = 0;
    }
  }
  frame_done();
}
